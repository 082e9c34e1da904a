package engine_test

import (
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
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
