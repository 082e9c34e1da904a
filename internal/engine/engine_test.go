package engine_test

import (
	"strings"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/engine"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/trace"
)

func haltProg() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").Halt()
	return b.MustAssemble()
}

func TestAttachClamp(t *testing.T) {
	m := machine.MustNew(machine.GridForNodes(8), haltProg())
	eng := engine.Attach(m, 100)
	defer eng.Stop()
	if got := eng.Shards(); got != 8 {
		t.Errorf("Attach(m8, 100).Shards() = %d, want 8", got)
	}
}

func TestAttachSequentialNoOp(t *testing.T) {
	m := machine.MustNew(machine.GridForNodes(8), haltProg())
	eng := engine.Attach(m, 1)
	if got := eng.Shards(); got != 1 {
		t.Errorf("Attach(m, 1).Shards() = %d, want 1", got)
	}
	// Zero and negative counts are sequential too, never "all cores".
	if got := engine.Attach(m, -3).Shards(); got != 1 {
		t.Errorf("Attach(m, -3).Shards() = %d, want 1", got)
	}
	// Stop on the no-op engine, twice, and on a nil engine: all safe.
	eng.Stop()
	eng.Stop()
	var nilEng *engine.Engine
	nilEng.Stop()
	// The machine still steps sequentially.
	m.Nodes[0].StartBackground(0)
	if err := m.RunUntilHalt(0, 100); err != nil {
		t.Fatal(err)
	}
}

func TestStopRestoresSequential(t *testing.T) {
	m := machine.MustNew(machine.GridForNodes(8), haltProg())
	eng := engine.Attach(m, 4)
	if got := eng.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	m.StepN(3)
	eng.Stop()
	eng.Stop() // idempotent
	// After Stop the sequential loop owns the machine again.
	m.Nodes[0].StartBackground(0)
	if err := m.RunUntilHalt(0, 100); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRunsTrivialProgram(t *testing.T) {
	seq := machine.MustNew(machine.GridForNodes(8), haltProg())
	seq.Nodes[0].StartBackground(0)
	if err := seq.RunUntilHalt(0, 100); err != nil {
		t.Fatal(err)
	}

	par := machine.MustNew(machine.GridForNodes(8), haltProg())
	eng := engine.Attach(par, 4)
	defer eng.Stop()
	par.Nodes[0].StartBackground(0)
	if err := par.RunUntilHalt(0, 100); err != nil {
		t.Fatal(err)
	}
	if seq.Cycle() != par.Cycle() || seq.StateDigest() != par.StateDigest() {
		t.Errorf("trivial program diverged: seq (cycle %d, %#x) vs par (cycle %d, %#x)",
			seq.Cycle(), seq.StateDigest(), par.Cycle(), par.StateDigest())
	}
}

// TestAttachWithoutLaunchLatency runs reliable-delivery pings on a mesh
// with no network-interface launch latency, where an ack a deliver hook
// injects can enter its router in the cycle it was injected, and
// requires every shard count to reach the sequential loop's cycle
// count and digest.
func TestAttachWithoutLaunchLatency(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, rt.AppBase).
		Send(asm.Mem(isa.A0, 0)).
		MoveHdr(isa.R1, rt.LPing, 2).
		Send(asm.R(isa.R1)).
		SendE(asm.R(isa.NNR)).
		Suspend()
	rt.BuildLib(b)
	p := b.MustAssemble()
	run := func(shards int) (int64, uint64) {
		cfg := machine.GridForNodes(8)
		cfg.Net.LaunchCycles = -1 // none
		m := machine.MustNew(cfg, p)
		if got := m.Net.LaunchLatency(); got != 0 {
			t.Fatalf("launch latency %d, want 0", got)
		}
		rt.EnableReliable(rt.Attach(m, rt.Info(p), rt.DefaultPolicy()), rt.ReliableConfig{})
		for i := range m.Nodes {
			if err := m.Nodes[i].Mem.Write(rt.AppBase, m.Net.NodeWord((i+3)%m.NumNodes())); err != nil {
				t.Fatal(err)
			}
		}
		rt.StartAll(m, p, "main")
		eng := engine.Attach(m, shards)
		defer eng.Stop()
		if err := m.RunQuiescent(100_000); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return m.Cycle(), m.StateDigest()
	}
	wantCycles, wantDigest := run(0)
	for _, k := range []int{2, 4, 7} {
		if cycles, digest := run(k); cycles != wantCycles || digest != wantDigest {
			t.Errorf("shards=%d: cycle %d digest %#x, sequential cycle %d digest %#x",
				k, cycles, digest, wantCycles, wantDigest)
		}
	}
}

// TestWorkerPanicRecovery forces a panic on a worker goroutine's slab
// (the observer tap fires during the node phase) and requires the
// engine to re-raise it on the coordinator with the slab attributed,
// rather than deadlocking the join.
func TestWorkerPanicRecovery(t *testing.T) {
	m := machine.MustNew(machine.GridForNodes(8), haltProg())
	m.SetFastPath(false) // every cycle releases the workers
	eng := engine.Attach(m, 4)
	defer eng.Stop()
	last := m.NumNodes() - 1 // in slab 3, stepped by worker 3
	m.Nodes[last].StartBackground(0)
	m.Nodes[last].Watch = func(trace.Event) { panic("tap boom") }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was not re-raised on the coordinator")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "shard 3") || !strings.Contains(msg, "tap boom") {
			t.Errorf("re-raised panic %v does not attribute shard 3 / original message", r)
		}
	}()
	m.StepN(10)
	t.Fatal("StepN returned despite a worker panic")
}
