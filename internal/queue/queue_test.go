package queue

import (
	"math/bits"
	"testing"
	"testing/quick"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

func pushMsg(q *Queue, handler int32, body ...int32) bool {
	if !q.Push(word.MsgHeader(handler, len(body)+1)) {
		return false
	}
	for _, v := range body {
		if !q.Push(word.Int(v)) {
			return false
		}
	}
	return true
}

func TestBasicDelivery(t *testing.T) {
	q := New(16)
	if q.HeadReady() {
		t.Fatal("empty queue reports ready")
	}
	if !pushMsg(q, 7, 10, 20) {
		t.Fatal("push failed")
	}
	if !q.HeadReady() {
		t.Fatal("complete message not ready")
	}
	if q.HeadLen() != 3 {
		t.Errorf("HeadLen = %d", q.HeadLen())
	}
	if q.WordAt(0).HeaderIP() != 7 {
		t.Errorf("header ip = %d", q.WordAt(0).HeaderIP())
	}
	if q.WordAt(1).Data() != 10 || q.WordAt(2).Data() != 20 {
		t.Errorf("body = %v %v", q.WordAt(1), q.WordAt(2))
	}
	q.Pop()
	if q.HeadReady() || q.Used() != 0 {
		t.Error("pop did not free queue")
	}
}

func TestPartialMessageNotReady(t *testing.T) {
	q := New(16)
	q.Push(word.MsgHeader(1, 3))
	q.Push(word.Int(5))
	if q.HeadReady() {
		t.Error("incomplete message reported ready")
	}
	q.Push(word.Int(6))
	if !q.HeadReady() {
		t.Error("complete message not ready")
	}
}

func TestBackpressure(t *testing.T) {
	q := New(4)
	if !pushMsg(q, 1, 1, 2, 3) {
		t.Fatal("4-word message should fit a 4-word queue")
	}
	if q.Push(word.MsgHeader(1, 1)) {
		t.Error("push into full queue succeeded")
	}
	if q.Stats().RejectedWords != 1 {
		t.Errorf("rejected = %d", q.Stats().RejectedWords)
	}
	q.Pop()
	if !q.Push(word.MsgHeader(1, 1)) {
		t.Error("push after pop failed")
	}
}

func TestWrapAround(t *testing.T) {
	q := New(8)
	for i := 0; i < 50; i++ {
		if !pushMsg(q, int32(i), int32(i*10), int32(i*10+1)) {
			t.Fatalf("push %d failed", i)
		}
		if q.WordAt(1).Data() != int32(i*10) || q.WordAt(2).Data() != int32(i*10+1) {
			t.Fatalf("iteration %d: body wrong", i)
		}
		q.Pop()
	}
	if q.Stats().Delivered != 50 {
		t.Errorf("delivered = %d", q.Stats().Delivered)
	}
}

func TestFIFOProperty(t *testing.T) {
	// Messages come out in the order they went in, with bodies intact.
	f := func(bodies [][4]int32) bool {
		if len(bodies) > 16 {
			bodies = bodies[:16]
		}
		q := New(256)
		for i, b := range bodies {
			if !pushMsg(q, int32(i), b[0], b[1], b[2], b[3]) {
				return false
			}
		}
		for i, b := range bodies {
			if !q.HeadReady() || q.WordAt(0).HeaderIP() != int32(i) {
				return false
			}
			for j, v := range b {
				if q.WordAt(j+1).Data() != v {
					return false
				}
			}
			q.Pop()
		}
		return q.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMalformedHeaderCoerced(t *testing.T) {
	q := New(8)
	q.Push(word.Int(99)) // not a MSG-tagged header
	if !q.HeadReady() {
		t.Fatal("coerced message not ready")
	}
	if q.HeadLen() != 1 {
		t.Errorf("coerced len = %d", q.HeadLen())
	}
}

func TestPopTo(t *testing.T) {
	q := New(16)
	pushMsg(q, 3, 8, 9)
	buf := make([]word.Word, 8)
	n := q.PopTo(buf)
	if n != 3 {
		t.Fatalf("PopTo = %d", n)
	}
	if buf[0].HeaderIP() != 3 || buf[1].Data() != 8 || buf[2].Data() != 9 {
		t.Error("PopTo copied wrong words")
	}
}

func TestMaxUsedStat(t *testing.T) {
	q := New(16)
	pushMsg(q, 1, 1, 2, 3, 4, 5)
	if q.Stats().MaxUsedWords != 6 {
		t.Errorf("MaxUsedWords = %d", q.Stats().MaxUsedWords)
	}
}

func TestSqueezeLimitsCapacity(t *testing.T) {
	q := New(16)
	if q.Cap() != 16 || q.HardCap() != 16 {
		t.Fatalf("cap=%d hard=%d", q.Cap(), q.HardCap())
	}
	q.SetLimit(4)
	if q.Cap() != 4 {
		t.Errorf("squeezed Cap() = %d, want 4", q.Cap())
	}
	if q.HardCap() != 16 {
		t.Errorf("HardCap() changed under squeeze: %d", q.HardCap())
	}
	// A 4-word message fills the squeezed queue exactly; the next word
	// is rejected and counted.
	if !pushMsg(q, 1, 1, 2, 3) {
		t.Fatal("4-word message refused at squeezed capacity 4")
	}
	if q.Free() != 0 {
		t.Errorf("Free() = %d, want 0", q.Free())
	}
	if q.Push(word.MsgHeader(2, 1)) {
		t.Error("push accepted beyond squeezed capacity")
	}
	if got := q.Stats().RejectedWords; got != 1 {
		t.Errorf("RejectedWords = %d, want 1", got)
	}
	// Restoring the limit re-opens the hardware capacity.
	q.SetLimit(0)
	if q.Cap() != 16 || q.Free() != 12 {
		t.Errorf("after restore cap=%d free=%d", q.Cap(), q.Free())
	}
	if !q.Push(word.MsgHeader(2, 1)) {
		t.Error("push rejected after squeeze was lifted")
	}
}

func TestSqueezeSustainedBackpressureAccounting(t *testing.T) {
	q := New(64)
	q.SetLimit(8)
	// Sustained offered load against the squeezed queue: every word
	// over the limit is rejected, none are lost silently.
	accepted, rejected := 0, 0
	for i := 0; i < 40; i++ {
		var ok bool
		if i%4 == 0 {
			ok = q.Push(word.MsgHeader(1, 4))
		} else {
			ok = q.Push(word.Int(int32(i)))
		}
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted != 8 {
		t.Errorf("accepted %d words, want 8 (the squeezed cap)", accepted)
	}
	if got := q.Stats().RejectedWords; got != uint64(rejected) || rejected != 32 {
		t.Errorf("RejectedWords = %d, local count %d, want 32", got, rejected)
	}
	// Draining makes room again: pop both buffered messages.
	q.Pop()
	q.Pop()
	if q.Used() != 0 || !q.Push(word.MsgHeader(3, 1)) {
		t.Errorf("queue did not recover after drain: used=%d", q.Used())
	}
}

// TestRingGrowsByDoubling pins the ring's geometry: nothing until the
// first word, 16 words then, doubling only when a push finds it full,
// never past the power of two the capacity needs, and a restore sized to
// the words it restores.
func TestRingGrowsByDoubling(t *testing.T) {
	q := New(DefaultCapWords)
	if q.RingWords() != 0 {
		t.Fatalf("new queue holds a %d-word ring", q.RingWords())
	}
	for i := 0; i < DefaultCapWords/4; i++ {
		if !pushMsg(q, int32(i), 1, 2, 3) {
			t.Fatalf("message %d refused", i)
		}
		if want := max(minRing, 1<<bits.Len(uint(q.Used()-1))); q.RingWords() != want {
			t.Fatalf("%d words buffered in a %d-word ring, want %d", q.Used(), q.RingWords(), want)
		}
	}
	for i := 0; i < 100; i++ {
		q.Pop()
	}
	pushMsg(q, 7, 1, 2, 3) // wraps around the full-size ring
	e := &wire.Encoder{}
	q.SaveState(e)
	r := New(DefaultCapWords)
	if err := r.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 116 || r.RingWords() != 128 || r.StateDigest(0) != q.StateDigest(0) {
		t.Errorf("restored %d words into a %d-word ring (want 116 into 128)", r.Used(), r.RingWords())
	}
	for r.HeadReady() {
		r.Pop()
	}
	e = &wire.Encoder{}
	r.SaveState(e)
	if err := q.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.RingWords() != 0 {
		t.Errorf("an empty queue restored to a %d-word ring", q.RingWords())
	}
}
