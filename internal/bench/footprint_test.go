package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// footprint is the node state a machine has allocated, summed over its
// nodes.
type footprint struct {
	pages, tableEntries int // materialized memory pages, page-table entries
	ringWords           int // queue-ring words, both priorities
	xlateTables         int // translation tables with allocated entries
}

func machineFootprint(m *machine.Machine) footprint {
	var f footprint
	for _, n := range m.Nodes {
		entries, pages := n.Mem.Footprint()
		f.tableEntries += entries
		f.pages += pages
		for _, q := range n.Queues {
			f.ringWords += q.RingWords()
		}
		if n.Xl.Allocated() {
			f.xlateTables++
		}
	}
	return f
}

// TestNodeFootprint pins, exactly, the node state two shapes allocate:
// the token ring (4,096 nodes, 1,500 cycles) and the Figure 3 exchange
// loop at the paper's idle-16 load point (512 nodes, 2,000 cycles). A
// node pays for the pages it writes, for queue rings as long as the
// most it has buffered, rounded up to a power of two of at least 16
// words, and for a translation table once it ENTERs a name; neither
// shape ENTERs one. Host heap per node follows from these counts, so
// the pins catch a regression the heap bounds would let through.
func TestNodeFootprint(t *testing.T) {
	ring := func() *machine.Machine {
		m, run, err := newIdleRing(sim.Config{}, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer stopRun(run)
		m.StepN(1500)
		return m
	}
	exchange := func() *machine.Machine {
		p := buildFig3Program(8, true, 1<<30)
		m := machine.MustNew(machine.GridForNodes(512), p)
		rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		seedFig3(m, 16, rand.New(rand.NewSource(3)))
		rt.StartAll(m, p, "main")
		m.StepN(2000)
		return m
	}
	for _, c := range []struct {
		name  string
		build func() *machine.Machine
		want  footprint
	}{
		// One page and the 32-entry table per node; 56 nodes have
		// received a token, each into one 16-word ring.
		{"ring", ring, footprint{pages: 4096, tableEntries: 131072, ringWords: 896}},
		// Four pages (the runtime and loop words at the bottom of
		// SRAM, and the three the 256-word destination table at 3000
		// straddles) and a 16-word ring per priority on every node.
		{"fig3-exchange", exchange, footprint{pages: 2048, tableEntries: 16384, ringWords: 16384}},
	} {
		m := c.build()
		if err := m.FatalErr(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, nodes := machineFootprint(m), float64(m.NumNodes())
		t.Logf("%s: per node %.2f pages, %.2f page-table entries, %.2f queue-ring words, %.3f xlate tables",
			c.name, float64(got.pages)/nodes, float64(got.tableEntries)/nodes,
			float64(got.ringWords)/nodes, float64(got.xlateTables)/nodes)
		if got != c.want {
			t.Errorf("%s: %d nodes allocated %+v, want %+v", c.name, m.NumNodes(), got, c.want)
		}
	}
}
