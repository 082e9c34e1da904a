package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"jmachine/internal/ckpt"
)

// kvCkptSHA256 is the SHA-256 of the encoded checkpoint of an 8-node kv
// session after 25 requests. The kv runtime ENTERs its object names, so
// the image it encodes holds live translation tables. Any change to the
// checkpoint wire format, or to the state a node holds, moves it.
const kvCkptSHA256 = "35789646351389daa403813a4dbe89eaa019ee567d6371c45897547400292857"

// TestKVCheckpointBytesPinned pins the bytes ckpt.Capture(...).Encode()
// produces for a kv session, and that encoding it twice gives the same
// bytes.
func TestKVCheckpointBytesPinned(t *testing.T) {
	spec, err := kvSpec(8, 32, 4).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := newSession("pin", spec, "")
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.start(false); err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	for i := int32(0); i < 25; i++ {
		op := KVOp{Op: OpPut, Key: i * 7 % 32, Value: 100 + i}
		if i%3 == 2 {
			op = KVOp{Op: OpGet, Key: (i - 2) * 7 % 32}
		}
		if _, err := s.do(ReplayReq{Ops: []KVOp{op}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	a := ckpt.Capture(s.m, s.savers...).Encode()
	b := ckpt.Capture(s.m, s.savers...).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of one session differ")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != kvCkptSHA256 {
		t.Errorf("kv checkpoint (%d bytes): sha256 %s, want %s", len(a), got, kvCkptSHA256)
	}
}
