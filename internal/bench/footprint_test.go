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
	tableEntries   int // memory page-directory entries
	leaves, blocks int // materialized memory leaves and 16-word blocks
	ringWords      int // queue-ring words, both priorities
	xlateTables    int // translation tables with allocated entries
}

func machineFootprint(m *machine.Machine) footprint {
	var f footprint
	for _, n := range m.Nodes {
		entries, leaves, blocks := n.Mem.Footprint()
		f.tableEntries += entries
		f.leaves += leaves
		f.blocks += blocks
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
// node pays for the 16-word memory blocks it writes and a leaf per page
// they fall in, for queue rings as long as the most it has buffered,
// rounded up to a power of two of at least 16 words, and for a
// translation table once it ENTERs a name; neither shape ENTERs one. Host heap per node follows from these counts, so
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
		// Two blocks under one leaf and the 32-entry directory per
		// node (the boot words 0–4 and the ring's words at 64–66); 56
		// nodes have received a token, each into one 16-word ring.
		{"ring", ring, footprint{tableEntries: 131072, leaves: 4096, blocks: 8192, ringWords: 896}},
		// 19 blocks under four leaves per node: two blocks for the
		// runtime and loop words at the bottom of SRAM, whose page
		// holds one leaf, and the 17 blocks the 256-word destination
		// table at 3000 straddles, under three leaves. A 16-word ring
		// per priority on every node.
		{"fig3-exchange", exchange, footprint{tableEntries: 16384, leaves: 2048, blocks: 9728, ringWords: 16384}},
	} {
		m := c.build()
		if err := m.FatalErr(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, nodes := machineFootprint(m), float64(m.NumNodes())
		t.Logf("%s: per node %.2f blocks under %.2f leaves, %.2f page-directory entries, %.2f queue-ring words, %.3f xlate tables",
			c.name, float64(got.blocks)/nodes, float64(got.leaves)/nodes, float64(got.tableEntries)/nodes,
			float64(got.ringWords)/nodes, float64(got.xlateTables)/nodes)
		if got != c.want {
			t.Errorf("%s: %d nodes allocated %+v, want %+v", c.name, m.NumNodes(), got, c.want)
		}
	}
}
