package network

// BenchmarkNetworkStep times Network.Step alone, with no node phase
// around it: uniform random 8-word messages between the nodes of a
// small and a large mesh, offered faster than the mesh can carry them
// (the outboxes stay full), plus a light load on the large mesh. A
// benchmark iteration is one simulated cycle: the traffic driver's
// sends and queue drains, then one Step. ns/op covers both; ns per
// phit-hop and ns per router visit time the Step calls alone. It also
// reports the router and port visits per cycle, the host work the
// stepping loop did (RouterVisits, PortVisits).
//
//	go test -run '^$' -bench NetworkStep ./internal/network/

import (
	"math/rand"
	"testing"
	"time"

	"jmachine/internal/queue"
	"jmachine/internal/word"
)

// benchTraffic drives one mesh: offers messages at seeded random
// (src, dst, pri) — one in eight at priority 1 — and empties every
// delivery queue a message completed in, as the queues' completion
// hooks report them.
type benchTraffic struct {
	n      *Network
	qs     [][2]*queue.Queue
	offers int // send attempts per cycle
	draw   []uint32
	next   int
	woken  []int
	step   time.Duration // time spent in Step
}

const benchWords = 8

func newBenchTraffic(x, y, z, offers int) *benchTraffic {
	nodes := x * y * z
	qs := make([][2]*queue.Queue, nodes)
	t := &benchTraffic{qs: qs, offers: offers, draw: make([]uint32, 1<<16)}
	for i := range qs {
		qs[i] = [2]*queue.Queue{queue.New(0), queue.New(0)}
		woken := func() { t.woken = append(t.woken, i) }
		qs[i][0].SetReadyFn(woken)
		qs[i][1].SetReadyFn(woken)
	}
	n, err := New(Config{DimX: x, DimY: y, DimZ: z}, qs)
	if err != nil {
		panic(err)
	}
	t.n = n
	rng := rand.New(rand.NewSource(11))
	for i := range t.draw {
		t.draw[i] = rng.Uint32()
	}
	return t
}

// cycle offers this cycle's messages, steps the network once and
// drains the queues a message completed in.
func (t *benchTraffic) cycle() {
	nodes := uint32(t.n.Nodes())
	for i := 0; i < t.offers; i++ {
		d := t.draw[t.next]
		t.next = (t.next + 1) & (len(t.draw) - 1)
		src, dst, pri := int(d%nodes), int(d/nodes%nodes), 0
		if d>>29 == 0 {
			pri = 1
		}
		if t.n.OutboxFree(src, pri) < benchWords {
			continue
		}
		m := NewMessage()
		x, y, z := t.n.NodeCoords(dst)
		m.DestX, m.DestY, m.DestZ, m.Pri, m.Src = int8(x), int8(y), int8(z), int8(pri), int32(src)
		m.Words = append(m.Words, word.MsgHeader(1, benchWords))
		for w := 1; w < benchWords; w++ {
			m.Words = append(m.Words, word.Int(int32(w)))
		}
		t.n.Inject(src, m, 0)
	}
	start := time.Now()
	t.n.Step()
	t.step += time.Since(start)
	for _, node := range t.woken {
		for _, q := range t.qs[node] {
			for q.HeadReady() {
				q.Pop()
			}
		}
	}
	t.woken = t.woken[:0]
}

func BenchmarkNetworkStep(b *testing.B) {
	for _, c := range []struct {
		name    string
		x, y, z int
		offers  int
	}{
		{"2x2x2", 2, 2, 2, 2},
		{"8x8x8", 8, 8, 8, 64},
		{"8x8x8-light", 8, 8, 8, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			t := newBenchTraffic(c.x, c.y, c.z, c.offers)
			for i := 0; i < 2000; i++ {
				t.cycle()
			}
			hops0, routers0, ports0 := t.n.Stats().PhitHops, t.n.RouterVisits(), t.n.PortVisits()
			t.step = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.cycle()
			}
			b.StopTimer()
			step := float64(t.step.Nanoseconds())
			hops, routers := t.n.Stats().PhitHops-hops0, t.n.RouterVisits()-routers0
			if hops > 0 {
				b.ReportMetric(step/float64(hops), "ns/phit-hop")
			}
			if routers > 0 {
				b.ReportMetric(step/float64(routers), "ns/router-visit")
			}
			b.ReportMetric(float64(routers)/float64(b.N), "routers/cycle")
			b.ReportMetric(float64(t.n.PortVisits()-ports0)/float64(b.N), "ports/cycle")
		})
	}
}
