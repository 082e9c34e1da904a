package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/compiled"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
)

// TestSteadyStateAllocs pins at zero the host allocations of two paths
// that run once per simulated cycle or per check, on the benchmark's
// shapes:
//
//   - 100 cycles of the 512-node Figure 3 exchange (the benchmark's
//     exchange: 8-word requests, priority-1 acks), interpreted and
//     compiled, after warm-up. Messages are pooled and every outbox,
//     queue and building slice is reused, so steady-state traffic
//     allocates nothing per message.
//   - Machine.StateDigest on the 4,096-node ring, where every node
//     holds a suspended thread and a handler table: the digest walks
//     state in place.
//
// The race detector disables message pooling, so it skips there.
func TestSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops pooled messages")
	}
	for _, compile := range []bool{false, true} {
		p := buildFig3Program(8, true, 1<<30)
		m := machine.MustNew(machine.GridForNodes(512), p)
		rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		if compile {
			if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
				t.Fatal(err)
			}
		}
		seedFig3(m, 16, rand.New(rand.NewSource(11)))
		rt.StartAll(m, p, "main")
		m.StepN(12_000) // the message pool reaches its high-water mark
		allocs := testing.AllocsPerRun(10, func() { m.StepN(100) })
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		if m.Net.Stats().DeliveredMsgs[1] == 0 {
			t.Fatal("exchange: no acks delivered")
		}
		if allocs != 0 {
			t.Errorf("exchange (compiled %v): %.1f allocations per 100 cycles, want 0", compile, allocs)
		}
	}

	m, run := newSeededRing(t, 4096)
	defer stopRun(run)
	m.StepN(1500)
	if err := m.FatalErr(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { m.StateDigest() }); allocs != 0 {
		t.Errorf("4096-node ring: %.1f allocations per StateDigest, want 0", allocs)
	}
}
