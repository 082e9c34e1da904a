// jm-micro runs one micro-benchmark with adjustable parameters and
// prints its measurements: the communication and synchronization
// primitives of Section 3.
//
// Usage:
//
//	jm-micro -bench ping   [-k 8] [-target 7]
//	jm-micro -bench barrier [-nodes 64] [-inner 8]
//	jm-micro -bench bandwidth [-words 8] [-variant discard|imem|emem]
package main

import (
	"flag"
	"fmt"
	"log"

	"jmachine/internal/bench"
	"jmachine/internal/sim"
)

func main() {
	which := flag.String("bench", "ping", "micro-benchmark: ping, barrier, bandwidth")
	k := flag.Int("k", 8, "mesh edge length (ping)")
	target := flag.Int("target", 0, "target node id (ping)")
	nodes := flag.Int("nodes", 64, "machine size (barrier)")
	inner := flag.Int("inner", 8, "barriers per measurement (barrier)")
	words := flag.Int("words", 8, "message size in words (bandwidth)")
	variant := flag.String("variant", "discard", "receiver variant (bandwidth)")
	var sc sim.Config
	sc.Register(flag.CommandLine)
	flag.Parse()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	switch *which {
	case "ping":
		cycles, err := bench.Ping(*k, *target, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ping to node %d on a %d^3 mesh: %d cycles round trip (%.2f µs)\n",
			*target, *k, cycles, bench.Micros(float64(cycles)))
	case "barrier":
		cycles, err := bench.MeasureBarrier(*nodes, *inner, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("barrier on %d nodes: %.1f cycles (%.2f µs)\n",
			*nodes, cycles, bench.Micros(cycles))
	case "bandwidth":
		rate, err := bench.Bandwidth(*variant, *words)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("terminal bandwidth, %d-word messages, %s: %.1f Mbits/s\n",
			*words, *variant, rate)
	default:
		log.Fatalf("unknown benchmark %q", *which)
	}
}
