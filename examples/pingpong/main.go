// Pingpong reproduces the Figure 2 experiment interactively: round-trip
// latency of a null RPC as a function of the distance travelled, on an
// unloaded 8×8×8 machine.
//
// The output shows the two structural facts the paper highlights: a
// fixed base latency (network interface plus two thread dispatches) and
// a slope of exactly two cycles per hop of distance.
package main

import (
	"fmt"
	"log"

	"jmachine/internal/bench"
	"jmachine/internal/sim"
)

func main() {
	fmt.Println("round-trip latency of a null RPC on an unloaded 8x8x8 J-Machine")
	fmt.Println("hops  cycles  µs")
	var prev int64
	for d := 0; d <= 21; d += 3 {
		// Pick a target at Manhattan distance d from node 0.
		x := min(d, 7)
		y := min(d-x, 7)
		z := d - x - y
		target := x + 8*(y+8*z)
		cycles, err := bench.Ping(8, target, sim.Config{})
		if err != nil {
			log.Fatal(err)
		}
		slope := ""
		if prev != 0 {
			slope = fmt.Sprintf("  (+%d over 3 hops)", cycles-prev)
		}
		fmt.Printf("%4d  %6d  %.2f%s\n", d, cycles, bench.Micros(float64(cycles)), slope)
		prev = cycles
	}
	fmt.Println("\npaper: 43-cycle base, 2 cycles/hop round trip; corner-to-corner reads < 98 cycles")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
