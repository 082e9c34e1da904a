package serve

import (
	"fmt"
	"math/rand"
)

// GenOps returns a deterministic kv op stream: same seed, keys, and
// count ⇒ same ops, forever. jm-load generates its traffic with this
// and the verification path regenerates the identical stream to replay
// standalone, so "zero digest divergence" is checkable without
// recording anything.
func GenOps(seed int64, keys, n int) []KVOp {
	rng := rand.New(rand.NewSource(seed)) //jm:determinism seeded per stream, never the global source
	ops := make([]KVOp, n)
	for i := range ops {
		key := int32(rng.Intn(keys))
		// 50/50 read/write mix; a put's value encodes its position so
		// replies are checkable.
		if rng.Intn(2) == 0 {
			ops[i] = KVOp{Op: OpPut, Key: key, Value: int32(i + 1)}
		} else {
			ops[i] = KVOp{Op: OpGet, Key: key}
		}
	}
	return ops
}

// ReplayReq is one request of a session's recorded stream: exactly one
// of Ops, Step, or Run is meaningful per entry (Ops when non-empty,
// else Step when positive, else Run).
type ReplayReq struct {
	Ops  []KVOp
	Step int64
	Run  int64
}

// Replay executes a session's request stream in-process — no HTTP, no
// checkpointing, no observability — and returns the final cycle and
// StateDigest. Because every persistence and observability layer is
// digest-neutral and a session's trajectory depends only on its own
// request stream, this must equal the digest the daemon reports after
// serving the same stream, no matter how many concurrent tenants it
// hosted or how often the session was evicted and restored in between.
func Replay(spec Spec, reqs []ReplayReq) (int64, uint64, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return 0, 0, err
	}
	spec.Trace = false
	spec.MetricsEvery = 0
	s := newSession("replay", spec, "")
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.start(false); err != nil {
		return 0, 0, err
	}
	defer s.teardown()
	for i, req := range reqs {
		if _, err := s.do(req); err != nil {
			return 0, 0, fmt.Errorf("replay req %d: %w", i, err)
		}
	}
	cycle, digest, err := s.Digest()
	if err != nil {
		return 0, 0, err
	}
	return cycle, digest, nil
}
