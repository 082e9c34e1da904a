package machine

// Tests for the event-horizon fast path: the active set, the wake
// calendar, bulk idle skip, and — above all — byte-identical state
// versus the every-node-every-cycle reference loop. The engine package
// re-proves the same contract at workload scale; these tests pin the
// mechanism at machine scale where individual parks are visible.

import (
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/word"
)

// busyIdleProg: "main" spins a counted loop then halts; nodes that are
// never started stay idle and should park.
func busyIdleProg(iters int32) *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.R0, iters).
		Label("loop").
		Sub(isa.R0, asm.Imm(1)).
		Bt(isa.R0, "loop").
		Halt()
	return b.MustAssemble()
}

// refPair builds two identical machines, one with the fast path
// disabled (the reference), one with it on (the default).
func refPair(t *testing.T, nodes int, p *asm.Program) (ref, fast *Machine) {
	t.Helper()
	var err error
	if ref, err = New(GridForNodes(nodes), p); err != nil {
		t.Fatal(err)
	}
	ref.SetFastPath(false)
	if fast, err = New(GridForNodes(nodes), p); err != nil {
		t.Fatal(err)
	}
	return ref, fast
}

// compareState requires the two machines to agree on clock and digest.
func compareState(t *testing.T, label string, ref, fast *Machine) {
	t.Helper()
	if ref.Cycle() != fast.Cycle() {
		t.Errorf("%s: cycle %d (reference) vs %d (fast path)", label, ref.Cycle(), fast.Cycle())
	}
	if rd, fd := ref.StateDigest(), fast.StateDigest(); rd != fd {
		t.Errorf("%s: digest %#x (reference) vs %#x (fast path)", label, rd, fd)
	}
}

func TestFastPathDigestEquivalence(t *testing.T) {
	p := busyIdleProg(40)
	ref, fast := refPair(t, 8, p)
	for _, m := range []*Machine{ref, fast} {
		m.Nodes[0].StartBackground(p.Entry("main"))
		m.Nodes[5].StartBackground(p.Entry("main"))
	}
	// Compare at several boundaries: mid-compute, just after the halts,
	// and deep into the all-idle tail where the fast path skips in bulk.
	for _, span := range []int64{17, 100, 5000} {
		ref.StepN(span)
		fast.StepN(span)
		compareState(t, "StepN", ref, fast)
	}
}

func TestFastPathGlobalSkip(t *testing.T) {
	// Nothing ever starts: after the first cycle every node parks and
	// StepN crosses the whole span in a handful of stepped cycles.
	p := busyIdleProg(1)
	ref, fast := refPair(t, 8, p)
	ref.StepN(10_000)
	fast.StepN(10_000)
	compareState(t, "all-idle", ref, fast)
	if got := fast.nParked.Load(); got != int64(len(fast.Nodes)) {
		t.Errorf("parked %d of %d nodes", got, len(fast.Nodes))
	}
	if fast.Cycle() != 10_000 {
		t.Errorf("cycle = %d, want 10000", fast.Cycle())
	}
}

func TestAddCycleHookHonoursCadence(t *testing.T) {
	m, err := New(GridForNodes(4), busyIdleProg(1))
	if err != nil {
		t.Fatal(err)
	}
	const cadence = 100
	var fired []int64
	var stepped int64
	m.AddCycleHook(
		func(cycle int64) {
			stepped++
			if cycle%cadence == 0 {
				fired = append(fired, cycle)
			}
		},
		func(now int64) int64 { return (now/cadence + 1) * cadence },
	)
	if !m.FastPathActive() {
		t.Fatal("registering a hook must not disable the fast path")
	}
	m.StepN(1000)
	want := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	if len(fired) != len(want) {
		t.Fatalf("hook acted at cycles %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hook acted at cycles %v, want %v", fired, want)
		}
	}
	// The machine is idle: nearly every inter-boundary cycle should have
	// been skipped rather than stepped.
	if stepped > 100 {
		t.Errorf("hook saw %d stepped cycles over a 1000-cycle idle span", stepped)
	}
}

func TestExternalQueuePushWakesParkedNode(t *testing.T) {
	p := busyIdleProg(1)
	m, err := New(GridForNodes(4), p)
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(1000) // everything parks
	if got := m.nParked.Load(); got != int64(len(m.Nodes)) {
		t.Fatalf("parked %d of %d nodes", got, len(m.Nodes))
	}
	// A test-style external mutation: a message pushed straight into a
	// node's hardware queue, with no wake signal from the network.
	m.Nodes[2].Queues[0].Push(word.MsgHeader(p.Entry("main"), 1))
	m.StepN(100)
	if !m.Nodes[2].Halted() {
		t.Error("parked node never dispatched the externally pushed message")
	}
}

// TestPartialMessageLeavesNodeParked pushes a 3-word message into a
// node parked on NoEvent one word per StepN(1): the queue wakes its
// owner only when the message completes, so the node is not visited
// while the first two words sit in its queue, is visited on the cycle
// after the last one, and every step ends in the reference digest.
func TestPartialMessageLeavesNodeParked(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("sum").
		MoveI(isa.A0, 64).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Add(isa.R0, asm.Mem(isa.A3, 2)).
		St(isa.R0, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	ref, fast := refPair(t, 8, p)
	ref.StepN(100)
	fast.StepN(100)
	const target = 5
	if !fast.parked[target] || fast.wakeAt[target] != NoEvent || fast.hot.Has(target) {
		t.Fatalf("node %d: parked=%v wakeAt=%d hot=%v; want parked on NoEvent",
			target, fast.parked[target], fast.wakeAt[target], fast.hot.Has(target))
	}
	msg := []word.Word{word.MsgHeader(p.Entry("sum"), 3), word.Int(20), word.Int(22)}
	for i, w := range msg {
		visits := fast.NodeVisits()
		for _, m := range []*Machine{ref, fast} {
			m.Nodes[target].Queues[0].Push(w)
			m.StepN(1)
		}
		compareState(t, "after a pushed word", ref, fast)
		if err := fast.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got := fast.NodeVisits() - visits
		if last := i == len(msg)-1; last != (got > 0) {
			t.Errorf("word %d of %d: %d node visits", i+1, len(msg), got)
		}
	}
	ref.StepN(100)
	fast.StepN(100)
	compareState(t, "after the handler", ref, fast)
	if w, _ := fast.Nodes[target].Mem.Read(64); w.Data() != 42 {
		t.Errorf("handler stored %v, want 42", w)
	}
}

func TestSetFastPathOffKeepsEveryNodeLive(t *testing.T) {
	m, err := New(GridForNodes(4), busyIdleProg(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFastPath(false)
	if m.FastPathActive() {
		t.Fatal("SetFastPath(false) ignored")
	}
	m.StepN(200)
	if got := m.nParked.Load(); got != 0 {
		t.Errorf("reference mode parked %d nodes", got)
	}
}

func TestFastPathWatchdogTripsAtReferenceCycle(t *testing.T) {
	// A machine with work wedged behind a frozen node: the watchdog must
	// trip at the same cycle whether or not idle spans are skipped.
	p := busyIdleProg(1)
	trip := func(fastOn bool) (int64, error) {
		m, err := New(GridForNodes(4), p)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFastPath(fastOn)
		m.SetWatchdog(1000)
		m.Nodes[1].SetFrozen(true)
		m.Nodes[1].Queues[0].Push(word.MsgHeader(p.Entry("main"), 1))
		err = m.RunQuiescent(50_000)
		return m.Cycle(), err
	}
	refCycle, refErr := trip(false)
	fastCycle, fastErr := trip(true)
	if refCycle != fastCycle {
		t.Errorf("watchdog tripped at cycle %d (reference) vs %d (fast path)", refCycle, fastCycle)
	}
	if (refErr == nil) != (fastErr == nil) {
		t.Errorf("errors diverged: %v vs %v", refErr, fastErr)
	}
}
