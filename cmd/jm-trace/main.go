// jm-trace runs a workload on the simulated J-Machine with the
// observability layer attached and writes a Perfetto timeline
// (load it at https://ui.perfetto.dev) and/or a JSONL metrics stream.
//
// Attaching the recorder never changes simulation results: the final
// state digest printed here is byte-identical with tracing on or off,
// sequential or sharded (the engine equivalence suite enforces it).
//
// Usage:
//
//	jm-trace -perfetto trace.json                      # 64-node pingpong timeline
//	jm-trace -workload barrier -metrics m.jsonl -every 32
//	jm-trace -workload lcs -nodes 16 -shards 4 -perfetto t.json -perlink
package main

import (
	"flag"
	"fmt"
	"log"

	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/obs"
)

func main() {
	workload := flag.String("workload", "pingpong",
		"workload: pingpong, barrier, lcs, radix, nqueens, or tsp")
	var rc bench.ResilienceConfig
	flag.IntVar(&rc.Nodes, "nodes", 64, "machine size")
	perfetto := flag.String("perfetto", "", "Perfetto trace-event JSON output path")
	metrics := flag.String("metrics", "", "JSONL metric-snapshot output path")
	every := flag.Int("every", 64, "sampling period in cycles for counters and snapshots")
	perLink := flag.Bool("perlink", false, "add per-mesh-link occupancy counter tracks")
	flag.Int64Var(&rc.Budget, "budget", 4_000_000, "cycle budget for the micro-benchmarks")
	rc.Register(flag.CommandLine)
	flag.Parse()

	if *perfetto == "" && *metrics == "" {
		log.Fatal("nothing to record: set -perfetto and/or -metrics")
	}
	if err := rc.Validate(); err != nil {
		log.Fatal(err)
	}
	rc.Obs = &obs.Options{
		PerfettoPath: *perfetto,
		MetricsPath:  *metrics,
		Every:        *every,
		PerLink:      *perLink,
	}

	res, err := bench.RunCampaign(*workload, chaos.Campaign{}, rc)
	if err == nil && !res.Completed {
		err = res.Err
	}
	if err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	fmt.Printf("%s: nodes=%d shards=%d cycles=%d digest=%016x\n",
		*workload, rc.Nodes, rc.Shards, res.Cycles, res.StateDigest)
	if *perfetto != "" {
		fmt.Printf("timeline: %s (open at https://ui.perfetto.dev)\n", *perfetto)
	}
	if *metrics != "" {
		fmt.Printf("metrics:  %s\n", *metrics)
	}
}
