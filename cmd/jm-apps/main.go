// jm-apps runs one of the paper's macro-benchmark applications on a
// simulated machine and prints run time, correctness, and the Figure 6
// style cycle breakdown.
//
// Usage:
//
//	jm-apps -app lcs     [-nodes 64] [-lena 1024] [-lenb 4096]
//	jm-apps -app radix   [-nodes 64] [-keys 65536]
//	jm-apps -app nqueens [-nodes 64] [-n 13] [-depth 2]
//	jm-apps -app tsp     [-nodes 64] [-cities 14]
package main

import (
	"flag"
	"fmt"
	"log"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/machine"
	"jmachine/internal/sim"
	"jmachine/internal/stats"
)

func main() {
	app := flag.String("app", "lcs", "application: lcs, radix, nqueens, tsp")
	nodes := flag.Int("nodes", 64, "machine size")
	lena := flag.Int("lena", 256, "LCS: length of the distributed string")
	lenb := flag.Int("lenb", 512, "LCS: length of the streamed string")
	keys := flag.Int("keys", 4096, "radix: number of keys")
	n := flag.Int("n", 9, "nqueens: board size")
	depth := flag.Int("depth", 2, "nqueens: breadth-first split depth")
	cities := flag.Int("cities", 9, "tsp: city count")
	seed := flag.Int64("seed", 11, "workload seed")
	var sc sim.Config
	sc.Register(flag.CommandLine)
	flag.Parse()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	// setup applies the run configuration through each app's Setup hook;
	// preRun restores (or seeds) the checkpoint after the app's start-up,
	// right before the run loop; run.Stop releases the engine workers
	// once the app returns.
	run, setup, preRun := sc.Hooks(nil)

	var cycles int64
	var m *machine.Machine
	switch *app {
	case "lcs":
		params := lcs.Params{LenA: *lena, LenB: *lenb, Seed: *seed, Setup: setup, PreRun: preRun}
		r, err := lcs.Run(*nodes, params)
		run.Stop()
		if err != nil {
			log.Fatal(err)
		}
		a, b := params.Strings()
		fmt.Printf("LCS(%d×%d) = %d (reference %d)\n", *lena, *lenb, r.Length, lcs.Reference(a, b))
		cycles, m = r.Cycles, r.M
	case "radix":
		params := radix.Params{Keys: *keys, Seed: *seed, Setup: setup, PreRun: preRun}
		r, err := radix.Run(*nodes, params)
		run.Stop()
		if err != nil {
			log.Fatal(err)
		}
		ok := true
		want := radix.Reference(params.Input())
		for i := range want {
			if want[i] != r.Sorted[i] {
				ok = false
				break
			}
		}
		fmt.Printf("radix sort of %d keys: correct=%v\n", *keys, ok)
		cycles, m = r.Cycles, r.M
	case "nqueens":
		r, err := nqueens.Run(*nodes, nqueens.Params{N: *n, SplitDepth: *depth, Setup: setup, PreRun: preRun})
		run.Stop()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d-queens: %d solutions (reference %d) from %d tasks\n",
			*n, r.Solutions, nqueens.Reference(*n), r.Tasks)
		cycles, m = r.Cycles, r.M
	case "tsp":
		params := tsp.Params{Cities: *cities, Seed: *seed, Setup: setup, PreRun: preRun}
		r, err := tsp.Run(*nodes, params)
		run.Stop()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("TSP with %d cities: optimal tour %d (reference %d) over %d tasks\n",
			*cities, r.Best, tsp.Reference(params.Matrix()), r.Tasks)
		cycles, m = r.Cycles, r.M
	default:
		log.Fatalf("unknown application %q", *app)
	}

	fmt.Printf("run time: %d cycles = %.3f ms at 12.5 MHz on %d nodes\n",
		cycles, bench.Micros(float64(cycles))/1000, *nodes)
	bd := m.Stats.Breakdown()
	fmt.Printf("breakdown: comp %.1f%%  comm %.1f%%  sync %.1f%%  xlate %.1f%%  nnr %.1f%%  idle %.1f%%\n",
		100*bd[stats.CatComp], 100*bd[stats.CatComm], 100*bd[stats.CatSync],
		100*bd[stats.CatXlate], 100*bd[stats.CatNNR], 100*bd[stats.CatIdle])
	fmt.Printf("threads dispatched: %d, instructions: %d, send faults: %d\n",
		m.Stats.Threads(), m.Stats.Instrs(), m.Stats.SendFaults())
	fmt.Printf("state digest: %016x\n", m.StateDigest())
}
