package rt_test

import (
	"bytes"
	"fmt"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/ckpt/wire"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// TestWaitersRestoredOutOfOrder suspends four threads on one node, one
// per presence-tagged slot, and fills the slots in another order than
// the threads suspended in. Each restart must resume its own thread,
// and the runtime's checkpoint must round-trip byte-exact with every
// subset of waiters the restarts leave behind.
func TestWaitersRestoredOutOfOrder(t *testing.T) {
	const slots = 4
	p := buildWith(t, func(b *asm.Builder) {
		for k := int32(0); k < slots; k++ {
			// consumer k reads slot k (suspending on its cfut) and
			// stores the value plus 100k at AppBase+8+k.
			b.Label(fmt.Sprint("consumer", k)).
				MoveI(isa.A0, rt.AppBase+k).
				Move(isa.R0, asm.Mem(isa.A0, 0)).
				Add(isa.R0, asm.Imm(100*k)).
				MoveI(isa.A1, rt.AppBase+8+k).
				St(isa.R0, asm.Mem(isa.A1, 0)).
				Suspend()
			// producer k fills slot k with 10+k.
			b.Label(fmt.Sprint("producer", k)).
				MoveI(isa.A0, rt.AppBase+k).
				MoveI(isa.R0, 10+k).
				Bsr(isa.R3, rt.LWriteSync).
				Suspend()
		}
	})
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	n := m.Nodes[0]
	n.Mem.FillCfut(rt.AppBase, slots)
	roundTrip := func(when string) {
		t.Helper()
		e := &wire.Encoder{}
		r.CkptSave(e)
		if err := r.CkptRestore(wire.NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", when, err)
		}
		again := &wire.Encoder{}
		r.CkptSave(again)
		if !bytes.Equal(e.Bytes(), again.Bytes()) {
			t.Fatalf("%s: checkpoint changed across a round trip", when)
		}
	}
	for k := 0; k < slots; k++ {
		n.Queues[0].Push(word.MsgHeader(p.Entry(fmt.Sprint("consumer", k)), 1))
		m.StepN(40)
	}
	if got := r.SavedThreads(0); got != slots {
		t.Fatalf("%d threads suspended, want %d", got, slots)
	}
	roundTrip("all suspended")
	for i, k := range []int32{2, 0, 3, 1} {
		n.Queues[0].Push(word.MsgHeader(p.Entry(fmt.Sprint("producer", k)), 1))
		m.StepN(300)
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		if got := r.SavedThreads(0); got != slots-1-i {
			t.Fatalf("after filling slot %d: %d threads suspended, want %d", k, got, slots-1-i)
		}
		roundTrip(fmt.Sprint("after filling slot ", k))
	}
	for k := int32(0); k < slots; k++ {
		if got, _ := n.Mem.Read(rt.AppBase + 8 + k); got.Data() != 10+101*k {
			t.Errorf("consumer %d computed %v, want %d", k, got, 10+101*k)
		}
	}
}

// TestRuntimeCheckpointRejectsDisorder feeds the runtime section
// suspension records and name bindings whose keys repeat or descend:
// the encoder writes both tables in strictly ascending order, so decode
// refuses anything else.
func TestRuntimeCheckpointRejectsDisorder(t *testing.T) {
	p := buildWith(t, func(b *asm.Builder) { b.Label("main").Halt() })
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	// section encodes one node's runtime state: waiters with the given
	// ids, then names with the given keys.
	section := func(ids []int32, keys []int32) []byte {
		e := &wire.Encoder{}
		e.U32(1) // section format
		e.Int(1) // nodes
		e.I32(9) // next waiter id
		e.Int(len(ids))
		for _, id := range ids {
			e.I32(id)
			e.Int(0) // level
			for range 8 {
				e.U64(0)
			}
			e.I32(0)      // IP
			e.Bool(false) // Running
			e.I32(0)      // HandlerIP
		}
		e.Int(len(keys))
		for _, k := range keys {
			e.U64(uint64(word.New(word.TagPtr, k)))
			e.U64(uint64(word.Int(k)))
		}
		return e.Bytes()
	}
	for _, c := range []struct {
		name       string
		ids, keys  []int32
		wantReject bool
	}{
		{"ascending", []int32{3, 5, 8}, []int32{1, 2, 7}, false},
		{"duplicate waiter", []int32{3, 5, 5}, nil, true},
		{"descending waiter", []int32{5, 3}, nil, true},
		{"duplicate name", nil, []int32{4, 4}, true},
		{"descending name", nil, []int32{7, 2}, true},
	} {
		err := r.CkptRestore(wire.NewDecoder(section(c.ids, c.keys)))
		if (err != nil) != c.wantReject {
			t.Errorf("%s: restore error %v, want rejected %v", c.name, err, c.wantReject)
		}
		if err == nil && (r.SavedThreads(0) != len(c.ids) || r.NameCount(0) != len(c.keys)) {
			t.Errorf("%s: restored %d waiters and %d names, want %d and %d",
				c.name, r.SavedThreads(0), r.NameCount(0), len(c.ids), len(c.keys))
		}
	}
}
