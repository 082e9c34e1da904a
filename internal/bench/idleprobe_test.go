package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

// TestIdleProbeEquivalence re-proves the determinism contract on the
// probe itself: reference loop, fast path, and sharded fast path must
// end the same (nodes, tokens, warm, measure) run in byte-identical
// machine states.
func TestIdleProbeEquivalence(t *testing.T) {
	const (
		nodes   = 16
		tokens  = 2
		warm    = 500
		measure = 3000
	)
	ref, err := IdleProbe(nodes, sim.Config{Reference: true}, tokens, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sim.Config
	}{
		{"fast/seq", sim.Config{}},
		{"fast/shards-4", sim.Config{Shards: 4}},
		{"ref/shards-4", sim.Config{Shards: 4, Reference: true}},
	}
	for _, c := range cases {
		got, err := IdleProbe(nodes, c.Config, tokens, warm, measure)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Digest != ref.Digest {
			t.Errorf("%s: digest %#x, reference %#x", c.name, got.Digest, ref.Digest)
		}
	}
}

// countingStepper is the machine's sequential cycle body, call for
// call, counting the network steps and node phases it runs so the
// visit counters can be set against them.
type countingStepper struct{ netSteps, nodePhases int64 }

func (c *countingStepper) StepCycle(m *machine.Machine) {
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
	} else {
		m.Net.Step()
		c.netSteps++
	}
	m.PublishNetQuiet()
	m.StepNodeRangeInfo(0, m.NumNodes())
	c.nodePhases++
}

// ringVisits runs a 4-token ring linked in seeded random order, so the
// tokens' hops cross the mesh at seeded distances, for 20,000 measured
// cycles stepped as slices calls of StepN, and returns the router visits
// per network step, the node visits per node phase and the final digest.
// The bookkeeping is checked after every slice.
func ringVisits(t *testing.T, nodes, slices int) (perNetStep, perNodePhase float64, digest uint64) {
	t.Helper()
	m, run, err := newIdleRing(sim.Config{}, nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer stopRun(run)
	order := rand.New(rand.NewSource(11)).Perm(nodes)
	for i, id := range order {
		if err := m.Nodes[id].Mem.Write(rt.AppBase+idleOffNext, m.Net.NodeWord(order[(i+1)%nodes])); err != nil {
			t.Fatal(err)
		}
	}
	m.StepN(2000)
	c := &countingStepper{}
	m.SetStepper(c)
	routers, visited := m.Net.RouterVisits(), m.NodeVisits()
	for k := 0; k < slices; k++ {
		m.StepN(20_000 / int64(slices))
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%d nodes, slice %d of %d: %v", nodes, k+1, slices, err)
		}
	}
	m.SetStepper(nil)
	if err := m.FatalErr(); err != nil {
		t.Fatal(err)
	}
	if c.netSteps < 5000 {
		t.Fatalf("%d nodes: only %d of 20000 cycles stepped the network; the tokens are not moving", nodes, c.netSteps)
	}
	return float64(m.Net.RouterVisits()-routers) / float64(c.netSteps),
		float64(m.NodeVisits()-visited) / float64(c.nodePhases), m.StateDigest()
}

// TestVisitsFollowTokensNotMeshSize pins the work the step loops do on
// a nearly idle mesh: with four tokens in flight a network step
// examines a few dozen routers and a node phase a few nodes, at 512
// nodes and at 4,096 alike. The sweeps this replaced examined 2×nodes
// routers and nodes nodes per cycle. The counts are exact at the seed.
func TestVisitsFollowTokensNotMeshSize(t *testing.T) {
	const maxRouters, maxNodes = 64, 32
	for _, nodes := range []int{512, 4096} {
		r, n, _ := ringVisits(t, nodes, 1)
		t.Logf("%d nodes: %.2f router visits per network step, %.2f node visits per node phase", nodes, r, n)
		if r >= maxRouters || n >= maxNodes {
			t.Errorf("%d nodes: %.1f router visits per network step (want < %d), %.1f node visits per node phase (want < %d)",
				nodes, r, maxRouters, n, maxNodes)
		}
		if r2, n2, _ := ringVisits(t, nodes, 1); r2 != r || n2 != n {
			t.Errorf("%d nodes: visits not repeatable: %v, %v then %v, %v", nodes, r, n, r2, n2)
		}
	}
}

// TestSlicedSteppingDoesNoExtraWork pins the bulk-step boundary: the
// same 20,000 cycles stepped as ten StepN calls examine exactly the
// nodes and routers one call does, and end in the same state. Entry to
// StepN re-derives parked nodes' wakes instead of re-stepping them all,
// so a slice boundary costs the active set nothing.
func TestSlicedSteppingDoesNoExtraWork(t *testing.T) {
	const nodes = 4096
	r1, n1, d1 := ringVisits(t, nodes, 1)
	r10, n10, d10 := ringVisits(t, nodes, 10)
	t.Logf("one StepN: %.2f node visits per node phase; ten: %.2f", n1, n10)
	if n10 != n1 || r10 != r1 {
		t.Errorf("ten slices: %v node visits per node phase, %v router visits per network step; one call: %v, %v",
			n10, r10, n1, r1)
	}
	if d10 != d1 {
		t.Errorf("ten slices end in digest %#x, one call in %#x", d10, d1)
	}
}

// TestExternalPushBetweenSlices pins the contract the boundary relies
// on: a message pushed straight into a parked node's queue between two
// StepN calls, with no wake signal, is noticed at the next call's entry
// exactly as the reference loop notices it.
func TestExternalPushBetweenSlices(t *testing.T) {
	const nodes = 512
	p := buildIdleRingProgram()
	var target int
	run := func(sc sim.Config) uint64 {
		m, run, err := newIdleRing(sc, nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer stopRun(run)
		m.StepN(2000)
		if !sc.Reference {
			// Pick a node parked on traffic: nothing but a wake or an
			// external mutation would step it again.
			target = -1
			for _, pd := range m.Diagnose().Parked {
				if !pd.NeedWake && pd.WakeAt == machine.NoEvent {
					target = pd.Node
					break
				}
			}
			if target < 0 {
				t.Fatal("no node is parked on traffic after 2000 cycles")
			}
		}
		m.Nodes[target].Queues[0].Push(word.MsgHeader(p.Entry("pass"), 2))
		m.Nodes[target].Queues[0].Push(word.Int(1))
		m.StepN(3000)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		w, _ := m.Nodes[target].Mem.Read(rt.AppBase + idleOffCount)
		if w.Data() == 0 {
			t.Fatalf("node %d never forwarded the pushed token", target)
		}
		return m.StateDigest()
	}
	fast := run(sim.Config{})
	if ref := run(sim.Config{Reference: true}); fast != ref {
		t.Errorf("digest %#x after the push, reference %#x", fast, ref)
	}
}
