package bench

import (
	"jmachine/internal/machine"
	"jmachine/internal/sim"
)

// Ping measures one round trip from node 0 to target on a k×k×k mesh
// run under sc: a 2-word request answered by a 1-word acknowledgement
// (the Figure 2 null RPC).
func Ping(k, target int, sc sim.Config) (int64, error) {
	p := buildMicroProgram(buildPingClient)
	return runRoundTrip(sc, p, machine.Cube(k), target, nil)
}

// Bandwidth measures the sustained node-to-node data rate in Mbits/s
// for the given message size and receiver variant ("discard", "imem",
// or "emem") — one point of Figure 4.
func Bandwidth(variant string, words int) (float64, error) {
	return runFig4Point(variant, words, 300)
}
