package obs_test

// FuzzTraceExport drives the Perfetto exporter with arbitrary event
// sequences — and with the last few events of each alone, so windows
// that start mid-sequence are covered — and requires that it never
// panics and always terminates into valid JSON.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"jmachine/internal/obs"
	"jmachine/internal/trace"
)

// decodeEvents turns fuzz bytes into a deterministic event sequence:
// 8-byte records of cycle delta, node, kind, and payload.
func decodeEvents(data []byte) []trace.Event {
	var evs []trace.Event
	var cycle int64
	for len(data) >= 8 {
		rec := data[:8]
		data = data[8:]
		// Signed deltas exercise backwards time without unbounded values.
		cycle += int64(int8(rec[0]))
		evs = append(evs, trace.Event{
			Cycle: cycle,
			Node:  int32(int8(rec[1])),
			Kind:  trace.Kind(rec[2] % 10), // includes out-of-range kinds
			A:     int32(int16(binary.LittleEndian.Uint16(rec[3:5]))),
			B:     int32(int16(binary.LittleEndian.Uint16(rec[5:7]))),
		})
	}
	return evs
}

func FuzzTraceExport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 10, 0, 3, 0, 0})
	// A dispatch/suspend pair on one node, then a dangling resume.
	f.Add([]byte{
		1, 0, 0, 40, 0, 2, 0, 0,
		2, 0, 2, 40, 0, 0, 0, 0,
		1, 5, 1, 60, 0, 1, 0, 0,
	})
	// Many times more records than the suffix window holds.
	lap := make([]byte, 0, 40*8)
	for i := 0; i < 40; i++ {
		lap = append(lap, byte(i), byte(i%7), byte(i%8), byte(i), 0, byte(i), 0, 0)
	}
	f.Add(lap)

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeEvents(data)

		// Direct export of the raw sequence.
		var direct bytes.Buffer
		w := obs.NewPerfetto(&direct)
		for _, e := range evs {
			w.Event(e)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("direct export: %v", err)
		}
		if !json.Valid(direct.Bytes()) {
			t.Fatalf("direct export is not valid JSON:\n%s", direct.String())
		}

		// Export of the last seven events alone: a window that starts
		// mid-sequence (a resume or suspend without its dispatch) must
		// not corrupt the exporter either.
		var wrapped bytes.Buffer
		w2 := obs.NewPerfetto(&wrapped)
		w2.SetHandlerNames(func(ip int32) string { return "" }) // empty names fall back
		for _, e := range evs[max(0, len(evs)-7):] {
			w2.Event(e)
		}
		w2.Counter(3, -1, "fuzz", map[string]any{"v": len(evs)})
		w2.Instant(-5, 2, 9, "x", nil)
		if err := w2.Close(); err != nil {
			t.Fatalf("suffix export: %v", err)
		}
		if !json.Valid(wrapped.Bytes()) {
			t.Fatalf("suffix export is not valid JSON:\n%s", wrapped.String())
		}
	})
}
