package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
)

// netWork is the host work of the network steps in a window: steps
// taken, routers the passes visited, occupied input buffers stepRouter
// examined, and the slot blocks allocated since construction, which is
// the most routers that have held phits at once.
type netWork struct{ steps, routers, ports, blocks int64 }

// countNetWork steps m cycles cycles through the counting stepper and
// returns the network work they cost.
func countNetWork(t *testing.T, m *machine.Machine, cycles int64) netWork {
	t.Helper()
	c := &countingStepper{}
	m.SetStepper(c)
	routers, ports := m.Net.RouterVisits(), m.Net.PortVisits()
	m.StepN(cycles)
	m.SetStepper(nil)
	if err := m.FatalErr(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return netWork{c.netSteps, m.Net.RouterVisits() - routers, m.Net.PortVisits() - ports, m.Net.SlotBlocks()}
}

// TestNetStepWorkPinned pins, exactly, the routers and ports a network
// step visits on two benchmark-shaped programs at a fixed seed, and the
// slot blocks the network allocated. A visit does work only where a
// priority or a port has some: the priority-1 pass walks the routers
// holding priority-1 traffic, and stepRouter examines only occupied
// inputs. Only routers that hold phits hold a slot block, and a
// released block is reused, so the block count is the high-water mark
// of busy routers, not the mesh size.
//
//   - The 512-node 4-token ring of TestVisitsFollowTokensNotMeshSize
//     sends at priority 0 only, so the priority-1 pass visits no
//     router: a pass that walked every active router at priority 1 as
//     well, as the loop before this count did, doubles the router
//     visits.
//   - A 64-node Figure 3 exchange (the benchmark's exchange at an
//     eighth of the size): 8-word requests at priority 0, acks at
//     priority 1.
func TestNetStepWorkPinned(t *testing.T) {
	ring := func() (*machine.Machine, func()) {
		m, run := newSeededRing(t, 512)
		return m, func() { stopRun(run) }
	}
	exchange := func() (*machine.Machine, func()) {
		p := buildFig3Program(8, true, 1<<30)
		m := machine.MustNew(machine.GridForNodes(64), p)
		rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		seedFig3(m, 16, rand.New(rand.NewSource(11)))
		rt.StartAll(m, p, "main")
		return m, func() {}
	}
	for _, c := range []struct {
		name  string
		build func() (*machine.Machine, func())
		want  netWork
		pri1  bool // delivers priority-1 messages
	}{
		{"ring-512", ring, netWork{steps: 1943, routers: 10710, ports: 10314, blocks: 33}, false},
		{"exchange-64", exchange, netWork{steps: 4000, routers: 295051, ports: 299747, blocks: 62}, true},
	} {
		m, stop := c.build()
		m.StepN(2000)
		got := countNetWork(t, m, 4000)
		stop()
		st := m.Net.Stats()
		t.Logf("%s: %d network steps, %.2f router visits and %.2f port visits per step, %d phit-hops",
			c.name, got.steps, float64(got.routers)/float64(got.steps), float64(got.ports)/float64(got.steps), st.PhitHops)
		if (st.DeliveredMsgs[1] != 0) != c.pri1 {
			t.Errorf("%s: %d priority-1 messages delivered", c.name, st.DeliveredMsgs[1])
		}
		if got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}
