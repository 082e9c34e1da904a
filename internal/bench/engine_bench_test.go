package bench

// testing.B benchmarks for the parallel engine, run by scripts/bench.sh
// (never by plain `go test`). ns/op is nanoseconds per machine cycle.

import (
	"fmt"
	"testing"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// benchStep measures the per-cycle stepping cost of a barrier-loop
// machine of the given size under the given shard count.
func benchStep(b *testing.B, nodes, shards int) {
	p := barrierBenchProgram(1 << 28) // loops for far longer than any run
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		b.Fatal(err)
	}
	run, err := sim.Config{Shards: shards}.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		b.Fatal(err)
	}
	defer stopRun(run)
	rt.StartAll(m, p, "main")
	m.StepN(1000) // warm: the barrier waves are in flight
	b.ResetTimer()
	m.StepN(int64(b.N))
}

// benchIdleStep measures the per-cycle cost of the token-ring idle
// workload (internal/bench/idleprobe.go): nearly every node suspended
// on a cfut slot. This is the shape the event-horizon fast path is
// for, so it is benchmarked under both stepping modes.
func benchIdleStep(b *testing.B, nodes, shards int, reference bool) {
	m, run, err := newIdleRing(sim.Config{Shards: shards, Reference: reference}, nodes, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer stopRun(run)
	m.StepN(1000) // warm: every waiting node has suspended
	b.ResetTimer()
	m.StepN(int64(b.N))
}

// benchCompiledStep measures the per-cycle cost of the roofline probe's
// send-free fig3-compute shape — the dispatch-bound calibration loop —
// under the interpreter and the compiled handler tier. On the compiled
// side the no-send certificate lets fusion windows span the whole StepN
// horizon (docs/COMPILED.md).
func benchCompiledStep(b *testing.B, nodes int, comp bool) {
	m, err := rooflineMachine(false, nodes, comp)
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(2000) // warm: every node is deep in the calibration loop
	b.ResetTimer()
	m.StepN(int64(b.N))
}

func BenchmarkEngine(b *testing.B) {
	for _, nodes := range []int{64, 512} {
		for _, shards := range []int{0, 2, 4, 8} {
			name := fmt.Sprintf("n%d/seq", nodes)
			if shards > 1 {
				name = fmt.Sprintf("n%d/shards-%d", nodes, shards)
			}
			b.Run(name, func(b *testing.B) { benchStep(b, nodes, shards) })
		}
	}
	for _, mode := range []struct {
		name      string
		shards    int
		reference bool
	}{
		{"idle-n512/reference", 0, true},
		{"idle-n512/fast", 0, false},
		{"idle-n512/fast-shards-4", 4, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			benchIdleStep(b, 512, mode.shards, mode.reference)
		})
	}
	for _, tier := range []struct {
		name string
		comp bool
	}{
		{"compute-n512/interpreted", false},
		{"compute-n512/compiled", true},
	} {
		b.Run(tier.name, func(b *testing.B) {
			benchCompiledStep(b, 512, tier.comp)
		})
	}
}
