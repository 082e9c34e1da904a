package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
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
// tokens' hops cross the mesh at seeded distances, and returns the
// router visits per network step and the node visits per node phase
// over the measured cycles.
func ringVisits(t *testing.T, nodes int) (perNetStep, perNodePhase float64) {
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
	m.StepN(20_000)
	m.SetStepper(nil)
	if err := m.FatalErr(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.netSteps < 5000 {
		t.Fatalf("%d nodes: only %d of 20000 cycles stepped the network; the tokens are not moving", nodes, c.netSteps)
	}
	return float64(m.Net.RouterVisits()-routers) / float64(c.netSteps),
		float64(m.NodeVisits()-visited) / float64(c.nodePhases)
}

// TestVisitsFollowTokensNotMeshSize pins the work the step loops do on
// a nearly idle mesh: with four tokens in flight a network step
// examines a few dozen routers and a node phase a few nodes, at 512
// nodes and at 4,096 alike. The sweeps this replaced examined 2×nodes
// routers and nodes nodes per cycle. The counts are exact at the seed.
func TestVisitsFollowTokensNotMeshSize(t *testing.T) {
	const maxRouters, maxNodes = 64, 32
	for _, nodes := range []int{512, 4096} {
		r, n := ringVisits(t, nodes)
		t.Logf("%d nodes: %.2f router visits per network step, %.2f node visits per node phase", nodes, r, n)
		if r >= maxRouters || n >= maxNodes {
			t.Errorf("%d nodes: %.1f router visits per network step (want < %d), %.1f node visits per node phase (want < %d)",
				nodes, r, maxRouters, n, maxNodes)
		}
		if r2, n2 := ringVisits(t, nodes); r2 != r || n2 != n {
			t.Errorf("%d nodes: visits not repeatable: %v, %v then %v, %v", nodes, r, n, r2, n2)
		}
	}
}
