// jm-chaos runs deterministic fault-injection campaigns against the
// simulated J-Machine and reports survival and degradation: whether
// the workload completed, at what cycle cost, and what the resilience
// machinery (checksums, return-to-sender, reliable delivery, the
// progress watchdog) did along the way. The same seed and flags always
// produce byte-identical output.
//
// Usage:
//
//	jm-chaos -workload pingpong -campaign 'seed=7;freeze@100:node=7,dur=5000;corrupt@1:node=0,word=1'
//	jm-chaos -workload barrier -nodes 8 -seed 42 -faults 6 -reliable
//	jm-chaos -workload all -seed 1 -reliable -watchdog 20000
//	jm-chaos -workload lcs -seed 3 -faults 4 -reliable -runs 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"jmachine/internal/bench"
	"jmachine/internal/chaos"
)

func main() {
	workload := flag.String("workload", "pingpong",
		"workload: pingpong, barrier, lcs, radix, nqueens, tsp, or all")
	var rc bench.ResilienceConfig
	flag.IntVar(&rc.Nodes, "nodes", 8, "machine size")
	campaignStr := flag.String("campaign", "",
		"explicit campaign in the chaos text format (overrides -seed/-faults)")
	seed := flag.Uint64("seed", 1, "random-campaign seed")
	faults := flag.Int("faults", 4, "random-campaign fault count")
	horizon := flag.Int64("horizon", 50_000, "random-campaign scheduling horizon in cycles")
	flag.BoolVar(&rc.Reliable, "reliable", false, "enable the ACK/retransmit reliable-delivery runtime")
	flag.BoolVar(&rc.Checksum, "checksum", true, "enable NI checksum protection")
	flag.BoolVar(&rc.RTS, "rts", true, "enable return-to-sender flow control")
	flag.IntVar(&rc.MaxReturns, "max-returns", 32, "refusal bound before the network drops (0 = unbounded)")
	flag.Int64Var(&rc.Watchdog, "watchdog", 100_000, "progress-watchdog window in cycles (0 = off)")
	flag.Int64Var(&rc.Budget, "budget", 4_000_000, "cycle budget per run")
	runs := flag.Int("runs", 1, "repeat count (identical output per run proves determinism)")
	rc.Register(flag.CommandLine)
	flag.Parse()
	if err := rc.Validate(); err != nil {
		log.Fatal(err)
	}

	camp, err := buildCampaign(*campaignStr, *seed, rc.Nodes, *horizon, *faults)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("campaign: %s\n", camp.String())
	fmt.Printf("resilience: checksum=%v rts=%v max-returns=%d watchdog=%d reliable=%v\n\n",
		rc.Checksum, rc.RTS, rc.MaxReturns, rc.Watchdog, rc.Reliable)

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"pingpong", "barrier", "lcs", "radix", "nqueens", "tsp"}
	}
	failed := false
	for r := 0; r < *runs; r++ {
		if *runs > 1 {
			fmt.Printf("=== run %d ===\n", r+1)
		}
		for _, name := range names {
			rcw := rc
			if rcw.Ckpt.Path != "" && len(names) > 1 {
				rcw.Ckpt.Path += "." + name
			}
			res, err := bench.RunCampaign(name, camp, rcw)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			printResult(res)
			if !res.Completed {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// buildCampaign parses an explicit campaign or generates a seeded one.
func buildCampaign(explicit string, seed uint64, nodes int, horizon int64, faults int) (chaos.Campaign, error) {
	if explicit != "" {
		return chaos.ParseCampaign(explicit)
	}
	return chaos.RandomCampaign(seed, nodes, horizon, faults), nil
}

// printResult renders one workload outcome deterministically.
func printResult(r *bench.CampaignResult) {
	status := "COMPLETED"
	if !r.Completed {
		status = "FAILED"
	}
	fmt.Printf("%-8s %-9s cycles=%d", r.Workload, status, r.Cycles)
	if r.Completed && r.Value != 0 {
		fmt.Printf(" value=%d", r.Value)
	}
	fmt.Printf(" digest=%016x", r.StateDigest)
	fmt.Println()
	ns := r.Net
	fmt.Printf("  net: delivered=%d/%d returned=%d retransmits=%d dropped=%d corrupt=%d dup=%d stalls=%d\n",
		ns.DeliveredMsgs[0], ns.DeliveredMsgs[1], ns.ReturnedMsgs, ns.Retransmits,
		ns.DroppedMsgs, ns.CorruptDrops, ns.DupDrops, ns.StallsInjected)
	if r.HasReliable {
		rs := r.Reliable
		fmt.Printf("  reliable: tracked=%d acks=%d/%d retries=%d dup-acked=%d failures=%d\n",
			rs.Tracked, rs.AcksSent, rs.AcksReceived, rs.Retries, rs.DupAcked, rs.Failures)
	}
	if r.WatchdogTrips > 0 {
		fmt.Printf("  watchdog: trips=%d\n", r.WatchdogTrips)
	}
	if r.ChaosReport != "" {
		for _, line := range strings.Split(strings.TrimRight(r.ChaosReport, "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	if r.Err != nil {
		msg := r.Err.Error()
		// The watchdog error embeds the full diagnostic dump; indent it.
		for _, line := range strings.Split(msg, "\n") {
			fmt.Printf("  ! %s\n", line)
		}
	}
	fmt.Println()
}
