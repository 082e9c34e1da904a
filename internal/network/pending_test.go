package network

// Cross-checks for the O(1) Pending() fast path: the incremental
// in-flight counters (actPhits, actMsgs) must agree with the full
// router/outbox scan (CheckInvariants) at every cycle of a random
// traffic mix, and must return exactly to zero once the mesh drains. Both the
// sequential Step loop and the sharded Snapshot/StepShard/Commit
// protocol are exercised — the shards accumulate phit deltas locally
// and fold them at Commit, which is a separate code path.

import (
	"math/rand"
	"testing"
)

// pendingCheck asserts counters and scan agree right now.
func pendingCheck(t *testing.T, n *Network, cycle int) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", cycle, err)
	}
}

// randomTraffic injects a random message roughly every third cycle:
// random source, destination (self-sends included), priority, length,
// and injection delay.
func randomTraffic(r *rand.Rand, n *Network, nodes int) {
	if r.Intn(3) != 0 {
		return
	}
	dst := r.Intn(nodes)
	m := msgTo(n, dst, r.Intn(2), 1+r.Intn(6))
	n.Inject(r.Intn(nodes), m, int32(r.Intn(3)))
}

func TestPendingCounterMatchesScan(t *testing.T) {
	const nodes = 16
	n, _ := makeNet(t, 4, 4, 1, 1<<14)
	r := rand.New(rand.NewSource(7))
	pendingCheck(t, n, -1)
	for c := 0; c < 3000; c++ {
		randomTraffic(r, n, nodes)
		n.Step()
		pendingCheck(t, n, c)
	}
	for c := 0; c < 20_000 && n.Pending(); c++ {
		n.Step()
	}
	pendingCheck(t, n, -2)
	if n.Pending() {
		t.Fatal("network did not drain")
	}
	if n.actPhits != 0 || n.actMsgs.Load() != 0 {
		t.Fatalf("drained network left residue: actPhits=%d actMsgs=%d",
			n.actPhits, n.actMsgs.Load())
	}
}

func TestPendingCounterMatchesScanSharded(t *testing.T) {
	const nodes = 16
	n, _ := makeNet(t, 4, 4, 1, 1<<14)
	sr := NewShardRun(n, 4)
	r := rand.New(rand.NewSource(11))
	step := func() {
		sr.Begin()
		for s := 0; s < sr.Shards(); s++ {
			sr.Snapshot(s)
		}
		for s := 0; s < sr.Shards(); s++ {
			sr.StepShard(s)
		}
		sr.Commit()
	}
	for c := 0; c < 3000; c++ {
		randomTraffic(r, n, nodes)
		step()
		pendingCheck(t, n, c)
	}
	for c := 0; c < 20_000 && n.Pending(); c++ {
		step()
	}
	if n.Pending() || n.actPhits != 0 || n.actMsgs.Load() != 0 {
		t.Fatalf("drained network left residue: actPhits=%d actMsgs=%d",
			n.actPhits, n.actMsgs.Load())
	}
}
