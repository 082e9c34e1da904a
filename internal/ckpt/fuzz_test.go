package ckpt_test

// FuzzRestore hardens the restore path against hostile files: any
// truncated, bit-flipped, or version-skewed checkpoint must produce a
// clean error — never a panic, never a silently wrong machine. The
// seed corpus starts from a real captured checkpoint so mutations
// reach past the container into the per-section codecs.

import (
	"os"
	"path/filepath"
	"testing"

	"jmachine/internal/bench"
	"jmachine/internal/ckpt"
)

// captureSeed writes a real mid-run pingpong checkpoint and returns
// its bytes.
func captureSeed(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	rc := fuzzConfig()
	rc.Ckpt = ckpt.Flags{Path: path, Every: 16}
	rc.Budget = 30 // dies mid-flight with a cycle-16 checkpoint on disk
	if _, err := bench.PingCampaign(equivCampaign(), rc); err != nil {
		f.Fatalf("seed campaign: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("seed checkpoint: %v", err)
	}
	return b
}

func fuzzConfig() bench.ResilienceConfig {
	return bench.ResilienceConfig{
		Nodes:      equivNodes,
		Checksum:   true,
		RTS:        true,
		MaxReturns: 32,
		Reliable:   true,
		Budget:     10_000,
	}
}

func FuzzRestore(f *testing.F) {
	valid := captureSeed(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(ckpt.Magic))
	f.Add(valid[:len(valid)/3])
	f.Add(valid[:len(valid)-1])
	// Version skew: corrupt the container magic's version digit.
	skew := append([]byte(nil), valid...)
	skew[6] = '2'
	f.Add(skew)
	// Bit flips at the container header, mid-payload, and final CRC.
	for _, pos := range []int{8, len(valid) / 2, len(valid) - 1} {
		flip := append([]byte(nil), valid...)
		flip[pos] ^= 0x04
		f.Add(flip)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Container decode must never panic, whatever the input.
		if _, err := ckpt.Decode(data); err != nil && len(data) >= len(valid) && string(data) == string(valid) {
			t.Fatalf("valid checkpoint rejected: %v", err)
		}
		// Full-stack restore (ReadFile → section match → per-layer
		// decoders → digest self-check) must error or succeed cleanly.
		path := filepath.Join(t.TempDir(), "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rc := fuzzConfig()
		rc.Ckpt = ckpt.Flags{Path: path, Resume: true}
		res, err := bench.PingCampaign(equivCampaign(), rc)
		if string(data) == string(valid) {
			// The unmodified seed must restore and complete.
			if err != nil {
				t.Fatalf("resume of valid checkpoint: %v", err)
			}
			if !res.Completed {
				t.Fatalf("resume of valid checkpoint did not complete: %v", res.Err)
			}
		}
	})
}
