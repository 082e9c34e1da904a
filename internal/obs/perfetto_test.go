package obs_test

// Golden-file and schema-shape coverage for the Perfetto exporter. The
// golden trace is a seeded 8-node pingpong: any change to the exporter
// output format — or to the simulator's event stream — shows up as a
// byte diff. Regenerate deliberately with:
//
//	go test ./internal/obs/ -run TestPerfettoGolden -update
//
// The schema check is format-level: every trace event must carry
// ph/ts/pid/tid, and every counter track's timestamps must be monotone,
// so the file loads in ui.perfetto.dev without warnings.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/obs"
	"jmachine/internal/sim"
	"jmachine/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun produces the golden workload's timeline and metrics bytes.
func goldenRun(t *testing.T) (perfetto, metrics []byte) {
	t.Helper()
	dir := t.TempDir()
	o := &obs.Options{
		PerfettoPath: filepath.Join(dir, "t.json"),
		MetricsPath:  filepath.Join(dir, "m.jsonl"),
		Every:        8,
		PerLink:      true,
	}
	res, err := bench.PingCampaign(chaos.Campaign{}, bench.ResilienceConfig{
		Nodes:  8,
		Budget: 100_000,
		Config: sim.Config{Obs: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("golden pingpong did not complete: %v", res.Err)
	}
	pb, err := os.ReadFile(o.PerfettoPath)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(o.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	return pb, mb
}

func TestPerfettoGolden(t *testing.T) {
	pb, mb := goldenRun(t)
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"pingpong.golden.json", pb},
		{"pingpong.golden.jsonl", mb},
	} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: output differs from golden file (len %d vs %d); regenerate with -update if the change is intended",
				g.name, len(g.got), len(want))
		}
	}
}

// checkTraceShape validates format-level invariants of a trace-event
// document and returns the parsed events.
func checkTraceShape(t *testing.T, doc []byte) []map[string]json.RawMessage {
	t.Helper()
	if !json.Valid(doc) {
		t.Fatal("document is not valid JSON")
	}
	var top struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &top); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	type track struct {
		pid  int64
		name string
	}
	lastTs := make(map[track]int64)
	opens, closes := 0, 0
	for i, ev := range top.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		var ph string
		var ts, pid int64
		if err := json.Unmarshal(ev["ph"], &ph); err != nil || ph == "" {
			t.Fatalf("event %d: bad ph (%v)", i, err)
		}
		if err := json.Unmarshal(ev["ts"], &ts); err != nil {
			t.Fatalf("event %d: bad ts (%v)", i, err)
		}
		if err := json.Unmarshal(ev["pid"], &pid); err != nil {
			t.Fatalf("event %d: bad pid (%v)", i, err)
		}
		switch ph {
		case "B":
			opens++
		case "E":
			closes++
		case "C":
			var name string
			if err := json.Unmarshal(ev["name"], &name); err != nil || name == "" {
				t.Fatalf("counter event %d without a name", i)
			}
			k := track{pid: pid, name: name}
			if prev, ok := lastTs[k]; ok && ts < prev {
				t.Errorf("counter track %v not monotone: ts %d after %d", k, ts, prev)
			}
			lastTs[k] = ts
		}
	}
	if opens != closes {
		t.Errorf("unbalanced spans: %d B vs %d E", opens, closes)
	}
	return top.TraceEvents
}

func TestPerfettoSchemaShape(t *testing.T) {
	pb, mb := goldenRun(t)
	events := checkTraceShape(t, pb)
	// The 8-node run must show all three track families.
	var counters, spans, instants int
	for _, ev := range events {
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		switch ph {
		case "C":
			counters++
		case "B":
			spans++
		case "i":
			instants++
		}
	}
	if counters == 0 || spans == 0 || instants == 0 {
		t.Errorf("track families missing: counters=%d spans=%d instants=%d",
			counters, spans, instants)
	}
	// Every metrics line is one valid Snapshot with a monotone cycle.
	lines := bytes.Split(bytes.TrimSpace(mb), []byte("\n"))
	var prev int64 = -1
	for i, line := range lines {
		var s obs.Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("metrics line %d: %v", i, err)
		}
		if s.Cycle <= prev {
			t.Errorf("metrics line %d: cycle %d not increasing after %d", i, s.Cycle, prev)
		}
		prev = s.Cycle
		if s.Nodes != 8 {
			t.Errorf("metrics line %d: nodes = %d", i, s.Nodes)
		}
	}
}

// TestPerfettoUnbalanced feeds a pathological event sequence — resumes
// without dispatches, suspends of nothing, out-of-order cycles — and
// requires a loadable document with balanced spans.
func TestPerfettoUnbalanced(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewPerfetto(&buf)
	evs := []trace.Event{
		{Cycle: 10, Node: 3, Kind: trace.Suspend, A: 1},
		{Cycle: 11, Node: 3, Kind: trace.Resume, A: 40},
		{Cycle: 12, Node: 3, Kind: trace.Dispatch, A: 50, B: 3}, // implicit close
		{Cycle: 5, Node: 3, Kind: trace.Dispatch, A: 60, B: 2},  // time goes backwards
		{Cycle: 2, Node: 4, Kind: trace.Halt, A: 9},
		{Cycle: 3, Node: 5, Kind: trace.Dispatch, A: 70, B: 1}, // left open at Close
	}
	for _, e := range evs {
		w.Event(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkTraceShape(t, buf.Bytes())
}

func TestHandlerNamesDeterministic(t *testing.T) {
	labels := map[string]int32{"zeta": 8, "alpha": 8, "beta": 16}
	fn := obs.HandlerNames(labels)
	if got := fn(8); got != "alpha" {
		t.Errorf("ip 8 → %q, want the lexicographically smallest label", got)
	}
	if got := fn(16); got != "beta" {
		t.Errorf("ip 16 → %q", got)
	}
	if got := fn(99); got != "" {
		t.Errorf("unknown ip → %q, want empty", got)
	}
}
