package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"jmachine/internal/apps/radix"
	"jmachine/internal/ckpt"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
)

// radixCkptSHA256 is the SHA-256 of the encoded checkpoint a 64-node
// radix sort takes at cycle 20,000. Its keys live in external memory, so
// the image it encodes spans DRAM as well as SRAM. Any change to the
// checkpoint wire format, or to the state a node holds, moves it.
const radixCkptSHA256 = "11dd09a63cf69c523b1c102217184f2d0ede42803cb3afe2197908185436f7e2"

// TestCheckpointBytesPinned pins the checkpoint wire format: the bytes
// ckpt.Capture(...).Encode() produces for a radix machine mid-run are
// fixed, and encoding the same machine twice gives the same bytes.
func TestCheckpointBytesPinned(t *testing.T) {
	const nodes, at = 64, 20_000
	var enc [][]byte
	setup := func(m *machine.Machine, r *rt.Runtime) {
		m.AddCycleHook(func(c int64) {
			if len(enc) > 0 || c < at {
				return
			}
			enc = append(enc, ckpt.Capture(m, r).Encode(), ckpt.Capture(m, r).Encode())
		}, func(now int64) int64 {
			if len(enc) > 0 || now >= at {
				return machine.NoEvent
			}
			return at
		})
	}
	if _, err := radix.Run(nodes, radix.Params{Keys: 4096, Setup: setup}); err != nil {
		t.Fatal(err)
	}
	if len(enc) == 0 {
		t.Fatalf("the run ended before cycle %d", at)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatal("two encodes of one machine differ")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc[0])); got != radixCkptSHA256 {
		t.Errorf("radix checkpoint (%d bytes): sha256 %s, want %s", len(enc[0]), got, radixCkptSHA256)
	}
}
