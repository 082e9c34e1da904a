package network

// Cross-checks for the O(1) Pending() fast path: the incremental
// in-flight counters (actPhits, actMsgs) must agree with the full
// router/outbox scan (CheckInvariants) at every cycle of a random
// traffic mix, and must return exactly to zero once the mesh drains —
// with traffic injected in order, and from node slabs on concurrent
// goroutines as the engine's node phase injects (actMsgs is the counter
// they share).

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
	r := rand.New(rand.NewSource(11))
	type send struct {
		src   int
		m     *Message
		delay int32
	}
	for c := 0; c < 3000; c++ {
		var sends []send
		for i := 0; i < 4; i++ {
			if r.Intn(3) == 0 {
				sends = append(sends, send{r.Intn(nodes), msgTo(n, r.Intn(nodes), r.Intn(2), 1+r.Intn(6)), int32(r.Intn(3))})
			}
		}
		injectSlabs(n, 4, func(lo, hi int) {
			for _, s := range sends {
				if s.src >= lo && s.src < hi {
					n.Inject(s.src, s.m, s.delay)
				}
			}
		})
		n.Step()
		pendingCheck(t, n, c)
	}
	for c := 0; c < 20_000 && n.Pending(); c++ {
		n.Step()
	}
	if n.Pending() || n.actPhits != 0 || n.actMsgs.Load() != 0 {
		t.Fatalf("drained network left residue: actPhits=%d actMsgs=%d",
			n.actPhits, n.actMsgs.Load())
	}
}
