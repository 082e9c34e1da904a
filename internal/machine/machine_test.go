package machine

import (
	"errors"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/trace"
)

func trivialProg() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").Halt()
	return b.MustAssemble()
}

func TestGridForNodes(t *testing.T) {
	cases := map[int][3]int{
		1:   {1, 1, 1},
		2:   {2, 1, 1},
		4:   {2, 2, 1},
		8:   {2, 2, 2},
		16:  {4, 2, 2},
		64:  {4, 4, 4},
		512: {8, 8, 8},
		96:  {4, 4, 6}, // 2^5 * 3
	}
	for n, want := range cases {
		cfg := GridForNodes(n)
		if cfg.DimX*cfg.DimY*cfg.DimZ != n {
			t.Errorf("GridForNodes(%d) = %dx%dx%d", n, cfg.DimX, cfg.DimY, cfg.DimZ)
		}
		got := [3]int{cfg.DimX, cfg.DimY, cfg.DimZ}
		if got != want {
			t.Errorf("GridForNodes(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNewRejectsEmptyProgram(t *testing.T) {
	if _, err := New(Cube(2), nil); err == nil {
		t.Error("nil program accepted")
	}
	empty := asm.NewBuilder().MustAssemble()
	if _, err := New(Cube(2), empty); err == nil {
		t.Error("empty program accepted")
	}
}

func TestRunUntilHaltAndCycleLimit(t *testing.T) {
	m := MustNew(Grid(1, 1, 1), trivialProg())
	m.Nodes[0].StartBackground(0)
	if err := m.RunUntilHalt(0, 100); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 1 {
		t.Errorf("halt took %d cycles", m.Cycle())
	}

	// A node that never halts trips the cycle limit.
	b := asm.NewBuilder()
	b.Label("main").Br("main")
	p := b.MustAssemble()
	m2 := MustNew(Grid(1, 1, 1), p)
	m2.Nodes[0].StartBackground(0)
	err := m2.RunUntilHalt(0, 50)
	var lim ErrCycleLimit
	if !errors.As(err, &lim) {
		t.Fatalf("expected cycle limit, got %v", err)
	}
}

func TestQuiescence(t *testing.T) {
	m := MustNew(Cube(2), trivialProg())
	if !m.Quiescent() {
		t.Error("idle machine not quiescent")
	}
	if err := m.RunQuiescent(100); err != nil {
		t.Fatal(err)
	}
}

func TestFatalSurfacesNodeError(t *testing.T) {
	// A program that reads a cfut with no fault handler is fatal.
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, 64).
		I(isa.MOVE, isa.R0, asm.Mem(isa.A0, 0)).
		Halt()
	p := b.MustAssemble()
	m := MustNew(Grid(1, 1, 1), p)
	m.Nodes[0].Mem.FillCfut(64, 1)
	m.Nodes[0].StartBackground(0)
	if err := m.RunUntilHalt(0, 1000); err == nil {
		t.Error("fatal fault not surfaced")
	}
}

func TestStepNAdvances(t *testing.T) {
	m := MustNew(Grid(2, 1, 1), trivialProg())
	m.StepN(25)
	if m.Cycle() != 25 {
		t.Errorf("cycle = %d", m.Cycle())
	}
	for _, n := range m.Nodes {
		if n.Cycle() != 25 {
			t.Errorf("node cycle = %d", n.Cycle())
		}
	}
}

func TestTraceRecordsMachineEvents(t *testing.T) {
	// Trace a send/dispatch/suspend round trip between two nodes.
	b2 := asm.NewBuilder()
	b2.Label("main").
		MoveI(isa.A0, 64).
		I(isa.SEND, 0, asm.Mem(isa.A0, 0)).
		MoveHdr(isa.R1, "sink", 1).
		I(isa.SENDE, 0, asm.R(isa.R1)).
		Halt()
	b2.Label("sink").I(isa.SUSPEND, 0, asm.Imm(0))
	p := b2.MustAssemble()
	m := MustNew(Grid(2, 1, 1), p)
	events := make([][]trace.Event, len(m.Nodes))
	for i, n := range m.Nodes {
		evs := &events[i]
		n.Watch = func(e trace.Event) { *evs = append(*evs, e) }
	}
	filter := func(node int, k trace.Kind) []trace.Event {
		var out []trace.Event
		for _, e := range events[node] {
			if e.Kind == k {
				out = append(out, e)
			}
		}
		return out
	}
	m.Nodes[0].Mem.Write(64, m.Net.NodeWord(1))
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.RunQuiescent(1000); err != nil {
		t.Fatal(err)
	}
	sends := filter(0, trace.Send)
	if len(sends) != 1 || sends[0].A != 1 {
		t.Errorf("sends = %v", sends)
	}
	disp := filter(1, trace.Dispatch)
	if len(disp) != 1 || disp[0].A != p.Entry("sink") {
		t.Errorf("dispatches = %v", disp)
	}
	if len(filter(1, trace.Suspend)) != 1 {
		t.Error("suspend not traced")
	}
}
