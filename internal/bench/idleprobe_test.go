package bench

import (
	"testing"

	"jmachine/internal/sim"
)

// TestIdleProbeEquivalence re-proves the determinism contract on the
// probe itself: reference loop, fast path, and sharded fast path must
// end the same (nodes, tokens, warm, measure) run in byte-identical
// machine states.
func TestIdleProbeEquivalence(t *testing.T) {
	const (
		nodes   = 16
		tokens  = 2
		warm    = 500
		measure = 3000
	)
	ref, err := IdleProbe(nodes, sim.Config{Reference: true}, tokens, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sim.Config
	}{
		{"fast/seq", sim.Config{}},
		{"fast/shards-4", sim.Config{Shards: 4}},
		{"ref/shards-4", sim.Config{Shards: 4, Reference: true}},
	}
	for _, c := range cases {
		got, err := IdleProbe(nodes, c.Config, tokens, warm, measure)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Digest != ref.Digest {
			t.Errorf("%s: digest %#x, reference %#x", c.name, got.Digest, ref.Digest)
		}
	}
}
