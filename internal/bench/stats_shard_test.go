package bench

// Cross-shard statistics aggregation: the per-node stats.Node counters
// are folded into machine-wide figures (per-Cat cycle totals, Table 4's
// per-thread-class rows, Table 5's user/OS split) on the coordinator.
// Stepping the node phase on the engine's slabs must produce exactly
// the same aggregates as the sequential loop — not merely close, since
// every counter is part of the determinism contract.

import (
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/stats"
)

var statShardCounts = []int{1, 2, 4}

// catTotals is the complete per-category cycle fold plus the other
// machine-wide stat aggregates.
type catTotals struct {
	cats    [stats.NumCats]int64
	instrs  uint64
	threads uint64
	sendF   uint64
	xlateF  uint64
}

func foldStats(m *stats.Machine) catTotals {
	var ct catTotals
	for c := stats.Cat(0); c < stats.NumCats; c++ {
		ct.cats[c] = m.Cycles(c)
	}
	ct.instrs = m.Instrs()
	ct.threads = m.Threads()
	ct.sendF = m.SendFaults()
	ct.xlateF = m.XlateFaults()
	return ct
}

// TestCatTotalsCrossShard folds the per-node Cat attribution of an LCS
// run under each shard count and requires identical totals, and that
// the per-node attribution always covers exactly nodes × cycles.
func TestCatTotalsCrossShard(t *testing.T) {
	run := func(shards int) (*stats.Machine, int64, int) {
		p := lcs.Params{LenA: 24, LenB: 36, Seed: 9}
		var eng *engine.Engine
		if shards > 0 {
			p.Setup = func(m *machine.Machine, _ *rt.Runtime) { eng = engine.Attach(m, shards) }
		}
		r, err := lcs.Run(8, p)
		eng.Stop()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return r.M.Stats, r.M.Cycle(), r.M.NumNodes()
	}
	refStats, refCycles, nodes := run(0)
	want := foldStats(refStats)
	var total int64
	for _, c := range want.cats {
		total += c
	}
	// Every node-cycle is attributed to exactly one category, except
	// that a node's final HALT cycle goes uncharged — so the fold may
	// fall short by at most one cycle per node.
	if full := refCycles * int64(nodes); total > full || total < full-int64(nodes) {
		t.Errorf("attribution incomplete: %d cat-cycles over %d node-cycles",
			total, full)
	}
	for _, k := range statShardCounts {
		st, cycles, _ := run(k)
		if cycles != refCycles {
			t.Errorf("shards=%d: cycles %d != %d", k, cycles, refCycles)
		}
		if got := foldStats(st); got != want {
			t.Errorf("shards=%d: stat totals diverged:\n  seq: %+v\n  par: %+v", k, want, got)
		}
		// The per-node vectors must match too, not just the fold.
		for i := range st.Nodes {
			if st.Nodes[i].Cycles != refStats.Nodes[i].Cycles {
				t.Errorf("shards=%d node %d: per-Cat cycles diverged: %v vs %v",
					k, i, st.Nodes[i].Cycles, refStats.Nodes[i].Cycles)
			}
		}
	}
}
