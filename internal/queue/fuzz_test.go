package queue

import (
	"bytes"
	"testing"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// fifo is the queue's model: a plain slice of the buffered words, head
// first, with the arrival bookkeeping and counters kept beside it.
type fifo struct {
	capWords, limit     int
	words               []word.Word
	arriving, expecting int
	msgs, maxUsed       int
	delivered, rejected uint64
}

func (f *fifo) cap() int {
	if f.limit > 0 && f.limit < f.capWords {
		return f.limit
	}
	return f.capWords
}

func (f *fifo) push(w word.Word) bool {
	if len(f.words) >= f.cap() {
		f.rejected++
		return false
	}
	if f.expecting == 0 {
		n := w.HeaderLen()
		if w.Tag() != word.TagMsg || n < 1 {
			w, n = word.MsgHeader(w.Data(), 1), 1
		}
		f.expecting, f.arriving = n, 0
	}
	f.words = append(f.words, w)
	f.arriving++
	f.maxUsed = max(f.maxUsed, len(f.words))
	if f.arriving == f.expecting {
		f.msgs++
		f.delivered++
		f.expecting, f.arriving = 0, 0
	}
	return true
}

// head returns the head message's words, or nil when none is complete.
func (f *fifo) head() []word.Word {
	if f.msgs == 0 {
		return nil
	}
	return f.words[:f.words[0].HeaderLen()]
}

func (f *fifo) pop() []word.Word {
	h := f.head()
	if h != nil {
		f.words = f.words[len(h):]
		f.msgs--
	}
	return h
}

// encode and digest spell out the checkpoint section and the digest
// fold field by field, so the ring's layout can never leak into either.
func (f *fifo) encode() []byte {
	e := &wire.Encoder{}
	for _, v := range []int{f.capWords, f.limit, len(f.words), f.arriving, f.expecting, f.msgs, f.maxUsed} {
		e.Int(v)
	}
	e.U64(f.delivered)
	e.U64(f.rejected)
	for _, w := range f.words {
		e.U64(uint64(w))
	}
	return e.Bytes()
}

func (f *fifo) digest(h uint64) uint64 {
	h = mix(h, uint64(len(f.words))|uint64(f.msgs)<<32)
	h = mix(h, uint64(f.arriving)|uint64(f.expecting)<<32)
	h = mix(h, uint64(f.limit))
	for _, w := range f.words {
		h = mix(h, uint64(w))
	}
	h = mix(h, uint64(f.maxUsed))
	h = mix(h, f.delivered)
	return mix(h, f.rejected)
}

// fuzzCaps are the capacities FuzzQueue draws from: a one-word queue, a
// ring that never fills its power of two, one that doubles past it, and
// the default.
var fuzzCaps = [...]int{1, 7, 100, DefaultCapWords}

// FuzzQueue drives a queue and its model through the same random
// sequence of operations, two bytes each, and after every step compares
// everything the queue reports: occupancy, the head message word by word,
// counters, digest and checkpoint bytes. The ring must stay a power of
// two that holds what is buffered and no more than the capacity needs,
// and the completion hook must have fired once per message the model
// completed, each time after the queue counted it.
func FuzzQueue(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 5, 4, 0})
	f.Add(uint8(1), []byte{2, 3, 2, 2, 1, 9, 0, 4, 4, 0, 7, 1, 2, 6})
	f.Add(uint8(2), []byte{2, 40, 2, 40, 2, 15, 6, 50, 2, 9, 7, 0, 5, 3, 3, 9, 1, 1, 7, 1, 4, 0, 2, 63})
	f.Add(uint8(3), []byte{2, 63, 2, 63, 2, 63, 2, 63, 4, 0, 2, 63, 2, 63, 2, 63, 2, 63, 2, 63, 0, 3, 7, 0, 4, 0, 2, 63, 7, 1})
	f.Fuzz(runQueueOps)
}

// maxQueueOps bounds one FuzzQueue input to 1,024 steps; the fuzzer's
// mutator grows inputs far past what one queue needs to fill and drain.
const maxQueueOps = 2048

// runQueueOps is FuzzQueue's body.
func runQueueOps(t *testing.T, capSel uint8, ops []byte) {
	capWords := fuzzCaps[int(capSel)%len(fuzzCaps)]
	q, m := New(capWords), &fifo{capWords: capWords}
	var fired uint64
	ready := func() {
		fired++
		if d := q.Stats().Delivered; d != fired {
			t.Fatalf("completion hook call %d fired with %d messages counted", fired, d)
		}
	}
	q.SetReadyFn(ready)
	maxRing := minRing
	for maxRing < capWords {
		maxRing *= 2
	}
	ops = ops[:min(len(ops), maxQueueOps)]
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%8, ops[step+1]
		switch op {
		case 0: // a header word of length arg%24 (0 is malformed)
			w := word.MsgHeader(int32(arg), int(arg)%24)
			if q.Push(w) != m.push(w) {
				t.Fatalf("step %d: header push disagrees", step)
			}
		case 1: // one body word
			if q.Push(word.Int(int32(arg))) != m.push(word.Int(int32(arg))) {
				t.Fatalf("step %d: body push disagrees", step)
			}
		case 2: // a whole message of arg%64+1 words, until refused
			n := int(arg)%64 + 1
			for i := 0; i < n; i++ {
				w := word.Int(int32(step<<8 | i))
				if i == 0 {
					w = word.MsgHeader(int32(step), n)
				}
				ok := q.Push(w)
				if ok != m.push(w) {
					t.Fatalf("step %d: word %d of a %d-word message: push disagrees", step, i, n)
				}
				if !ok {
					break
				}
			}
		case 3: // a word that is no header where one is expected
			w := word.New(word.TagSym, int32(arg))
			if q.Push(w) != m.push(w) {
				t.Fatalf("step %d: malformed push disagrees", step)
			}
		case 4:
			q.Pop()
			m.pop()
		case 5:
			dst := make([]word.Word, arg%8)
			want := m.pop()
			if n := q.PopTo(dst); n != len(want) {
				t.Fatalf("step %d: PopTo = %d, want %d", step, n, len(want))
			}
			for i := range dst {
				if i < len(want) && dst[i] != want[i] {
					t.Fatalf("step %d: PopTo word %d = %v, want %v", step, i, dst[i], want[i])
				}
			}
		case 6:
			limit := int(arg) % (capWords + 3)
			q.SetLimit(limit)
			m.limit = limit
		case 7: // checkpoint, then restore fresh (odd arg) or in place
			e := &wire.Encoder{}
			q.SaveState(e)
			if arg&1 == 1 {
				q = New(capWords)
				q.SetReadyFn(ready)
			}
			if err := q.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			if q.Used() == 0 && q.RingWords() != 0 {
				t.Fatalf("step %d: an empty queue restored a %d-word ring", step, q.RingWords())
			}
		}
		compareFIFO(t, step, q, m, maxRing)
		if fired != m.delivered {
			t.Fatalf("step %d: completion hook fired %d times, model completed %d messages", step, fired, m.delivered)
		}
	}
}

func compareFIFO(t *testing.T, step int, q *Queue, m *fifo, maxRing int) {
	t.Helper()
	free := max(m.cap()-len(m.words), 0)
	if q.Used() != len(m.words) || q.Free() != free || q.Cap() != m.cap() || q.Messages() != m.msgs {
		t.Fatalf("step %d: used/free/cap/msgs %d/%d/%d/%d, model %d/%d/%d/%d",
			step, q.Used(), q.Free(), q.Cap(), q.Messages(), len(m.words), free, m.cap(), m.msgs)
	}
	h := m.head()
	if q.HeadReady() != (h != nil) {
		t.Fatalf("step %d: HeadReady %v, model %v", step, q.HeadReady(), h != nil)
	}
	if h != nil && q.HeadLen() != len(h) {
		t.Fatalf("step %d: HeadLen %d, model %d", step, q.HeadLen(), len(h))
	}
	for i := -1; i <= len(h)+1; i++ {
		want := word.Int(0)
		if i >= 0 && i < len(h) {
			want = h[i]
		}
		if got := q.WordAt(i); got != want {
			t.Fatalf("step %d: WordAt(%d) = %v, model %v", step, i, got, want)
		}
	}
	if s := q.Stats(); s != (Stats{MaxUsedWords: m.maxUsed, Delivered: m.delivered, RejectedWords: m.rejected}) {
		t.Fatalf("step %d: stats %+v, model %d/%d/%d", step, s, m.maxUsed, m.delivered, m.rejected)
	}
	if q.StateDigest(3) != m.digest(3) {
		t.Fatalf("step %d: digest differs from the model's", step)
	}
	e := &wire.Encoder{}
	q.SaveState(e)
	if !bytes.Equal(e.Bytes(), m.encode()) {
		t.Fatalf("step %d: checkpoint bytes differ from the model's", step)
	}
	if r := q.RingWords(); r != 0 && (r&(r-1) != 0 || r < minRing || r > maxRing || r < q.Used()) {
		t.Fatalf("step %d: %d-word ring holding %d words (at most %d allowed)", step, r, q.Used(), maxRing)
	}
}
