package network

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"jmachine/internal/queue"
	"jmachine/internal/word"
)

func makeNet(t *testing.T, x, y, z int, qcap int) (*Network, [][2]*queue.Queue) {
	if t != nil {
		t.Helper()
	}
	queues := make([][2]*queue.Queue, x*y*z)
	for i := range queues {
		queues[i] = [2]*queue.Queue{queue.New(qcap), queue.New(qcap)}
	}
	n, err := New(Config{DimX: x, DimY: y, DimZ: z}, queues)
	if err != nil {
		t.Fatal(err)
	}
	return n, queues
}

func msgTo(n *Network, dst int, pri int, payload int) *Message {
	x, y, z := n.NodeCoords(dst)
	words := make([]word.Word, payload)
	words[0] = word.MsgHeader(1, payload)
	for i := 1; i < payload; i++ {
		words[i] = word.Int(int32(i * 100))
	}
	return &Message{DestX: int8(x), DestY: int8(y), DestZ: int8(z), Pri: int8(pri), Words: words}
}

func runUntilDelivered(t *testing.T, n *Network, q *queue.Queue, max int) int {
	t.Helper()
	for c := 0; c < max; c++ {
		if q.HeadReady() {
			return c
		}
		n.Step()
	}
	t.Fatalf("message not delivered within %d cycles", max)
	return 0
}

func TestSingleHopDelivery(t *testing.T) {
	n, qs := makeNet(t, 4, 1, 1, 64)
	m := msgTo(n, 1, 0, 2)
	n.Inject(0, m, 0)
	cycles := runUntilDelivered(t, n, qs[1][0], 100)
	// 2-word message = 6 phits; pipeline injection + 1 hop + delivery.
	if cycles < 6 || cycles > 20 {
		t.Errorf("1-hop 2-word delivery = %d cycles", cycles)
	}
	q := qs[1][0]
	if q.HeadLen() != 2 || q.WordAt(1).Data() != 100 {
		t.Errorf("delivered message corrupt: len=%d w1=%v", q.HeadLen(), q.WordAt(1))
	}
	if n.Stats().DeliveredMsgs[0] != 1 {
		t.Errorf("DeliveredMsgs = %d", n.Stats().DeliveredMsgs[0])
	}
}

func TestLatencySlopeOneCyclePerHop(t *testing.T) {
	// Minimum latency is 1 cycle/hop: increasing distance by one hop
	// adds exactly one cycle on an unloaded network.
	lat := make([]int64, 7)
	for d := 1; d <= 7; d++ {
		n, _ := makeNet(t, 8, 1, 1, 64)
		m := msgTo(n, d, 0, 2)
		n.Inject(0, m, 0)
		for m.DeliverCycle == 0 {
			n.Step()
		}
		lat[d-1] = m.DeliverCycle - m.EnqueueCycle
	}
	for d := 1; d < 7; d++ {
		if lat[d]-lat[d-1] != 1 {
			t.Errorf("slope at hop %d: %d -> %d", d, lat[d-1], lat[d])
		}
	}
}

func TestSerializationTwoCyclesPerWord(t *testing.T) {
	// Channel bandwidth is 0.5 words/cycle: each extra payload word adds
	// two cycles to the tail's arrival.
	var prev int64
	for L := 2; L <= 16; L *= 2 {
		n, _ := makeNet(t, 2, 1, 1, 64)
		m := msgTo(n, 1, 0, L)
		n.Inject(0, m, 0)
		for m.DeliverCycle == 0 {
			n.Step()
		}
		lat := m.DeliverCycle - m.EnqueueCycle
		if prev != 0 {
			extraWords := int64(L / 2)
			if lat-prev != 2*extraWords {
				t.Errorf("L=%d: latency %d, prev %d, want +%d", L, lat, prev, 2*extraWords)
			}
		}
		prev = lat
	}
}

func TestECubeRouteLengthProperty(t *testing.T) {
	// Delivery time on an unloaded mesh grows exactly with Manhattan
	// distance (e-cube is minimal), message content survives, and every
	// message is delivered exactly once.
	f := func(sx, sy, sz, dx, dy, dz uint8) bool {
		const k = 4
		src := [3]int{int(sx) % k, int(sy) % k, int(sz) % k}
		dst := [3]int{int(dx) % k, int(dy) % k, int(dz) % k}
		n, qs := makeNet(nil, k, k, k, 64)
		s := n.NodeID(src[0], src[1], src[2])
		d := n.NodeID(dst[0], dst[1], dst[2])
		m := msgTo(n, d, 0, 2)
		n.Inject(s, m, 0)
		for i := 0; i < 500 && m.DeliverCycle == 0; i++ {
			n.Step()
		}
		if m.DeliverCycle == 0 {
			return false
		}
		manhattan := abs(src[0]-dst[0]) + abs(src[1]-dst[1]) + abs(src[2]-dst[2])
		lat := m.DeliverCycle - m.EnqueueCycle
		base := lat - int64(manhattan)
		// The distance-independent part must be constant: re-derive it
		// for distance 0 and compare.
		n2, _ := makeNet(nil, k, k, k, 64)
		m2 := msgTo(n2, s, 0, 2)
		n2.Inject(s, m2, 0)
		for i := 0; i < 500 && m2.DeliverCycle == 0; i++ {
			n2.Step()
		}
		return qs[d][0].HeadReady() && base == m2.DeliverCycle-m2.EnqueueCycle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestPriorityPreference(t *testing.T) {
	// Two messages contending for the same path: the priority-1 message
	// must not be delayed behind priority-0 bulk traffic.
	n, _ := makeNet(t, 8, 1, 1, 256)
	bulk := msgTo(n, 7, 0, 16)
	pri := msgTo(n, 7, 1, 2)
	n.Inject(0, bulk, 0)
	n.Inject(0, pri, 0)
	for pri.DeliverCycle == 0 || bulk.DeliverCycle == 0 {
		n.Step()
		if n.Stats().Cycles > 1000 {
			t.Fatal("messages stuck")
		}
	}
	if pri.DeliverCycle >= bulk.DeliverCycle {
		t.Errorf("priority 1 delivered at %d, after bulk at %d", pri.DeliverCycle, bulk.DeliverCycle)
	}
}

func TestBackpressureNoLoss(t *testing.T) {
	// A tiny destination queue forces delivery stalls; popping the queue
	// must eventually drain every message intact.
	n, qs := makeNet(t, 2, 1, 1, 8)
	const sent = 10
	for i := 0; i < sent; i++ {
		m := msgTo(n, 1, 0, 4)
		m.Words[1] = word.Int(int32(i))
		n.Inject(0, m, 0)
	}
	// Let the 8-word queue fill (two 4-word messages) before draining,
	// forcing the network to hold the rest back.
	for c := 0; c < 100; c++ {
		n.Step()
	}
	got := 0
	for c := 0; c < 5000 && got < sent; c++ {
		n.Step()
		if qs[1][0].HeadReady() {
			if qs[1][0].WordAt(1).Data() != int32(got) {
				t.Fatalf("message %d out of order: %v", got, qs[1][0].WordAt(1))
			}
			qs[1][0].Pop()
			got++
		}
	}
	if got != sent {
		t.Fatalf("delivered %d of %d", got, sent)
	}
	if n.Stats().DeliveryStalls == 0 {
		t.Error("expected delivery stalls with a tiny queue")
	}
}

func TestBisectionAccounting(t *testing.T) {
	n, _ := makeNet(t, 4, 1, 1, 64)
	m := msgTo(n, 3, 0, 2) // crosses the mid-X plane (x=1 -> x=2)
	n.Inject(0, m, 0)
	for m.DeliverCycle == 0 {
		n.Step()
	}
	if got := n.Stats().BisectionPhits; got != uint64(m.WirePhits()) {
		t.Errorf("bisection phits = %d, want %d", got, m.WirePhits())
	}

	n2, _ := makeNet(t, 4, 1, 1, 64)
	m2 := msgTo(n2, 1, 0, 2) // stays left of the plane
	n2.Inject(0, m2, 0)
	for m2.DeliverCycle == 0 {
		n2.Step()
	}
	if got := n2.Stats().BisectionPhits; got != 0 {
		t.Errorf("non-crossing message counted %d bisection phits", got)
	}
}

func TestOutboxCapacity(t *testing.T) {
	n, _ := makeNet(t, 2, 1, 1, 64)
	free := n.OutboxFree(0, 0)
	if free != DefaultOutboxWords {
		t.Fatalf("initial OutboxFree = %d", free)
	}
	m := msgTo(n, 1, 0, 8)
	n.Inject(0, m, 0)
	if n.OutboxFree(0, 0) != free-8 {
		t.Errorf("OutboxFree after inject = %d", n.OutboxFree(0, 0))
	}
	for m.DeliverCycle == 0 {
		n.Step()
	}
	if n.OutboxFree(0, 0) != free {
		t.Errorf("OutboxFree after drain = %d", n.OutboxFree(0, 0))
	}
}

func TestNodeAddressing(t *testing.T) {
	n, _ := makeNet(t, 4, 3, 2, 16)
	for id := 0; id < n.Nodes(); id++ {
		x, y, z := n.NodeCoords(id)
		if n.NodeID(x, y, z) != id {
			t.Fatalf("coords round trip failed for %d", id)
		}
		if n.NodeFromWord(n.NodeWord(id)) != id {
			t.Fatalf("word round trip failed for %d", id)
		}
	}
	if n.NodeFromWord(word.Node(9, 0, 0)) != -1 {
		t.Error("out-of-mesh word resolved")
	}
}

func TestRandomTrafficAllDelivered(t *testing.T) {
	// Saturating random traffic: every injected message is delivered
	// exactly once, in spite of contention and wormhole blocking.
	n, qs := makeNet(t, 3, 3, 3, 4096)
	r := rand.New(rand.NewSource(1))
	const per = 20
	sent := 0
	for id := 0; id < n.Nodes(); id++ {
		for k := 0; k < per; k++ {
			m := msgTo(n, r.Intn(n.Nodes()), 0, 2+r.Intn(6))
			n.Inject(id, m, 0)
			sent++
		}
	}
	for c := 0; c < 100000 && n.Pending(); c++ {
		n.Step()
	}
	if n.Pending() {
		t.Fatal("network did not drain")
	}
	var got uint64
	for _, q := range qs {
		got += q[0].Stats().Delivered
	}
	if got != uint64(sent) {
		t.Fatalf("delivered %d of %d", got, sent)
	}
}

func TestReturnToSender(t *testing.T) {
	// A stopped receiver with a tiny queue: without RTS the traffic
	// wedges in the network; with RTS refused messages bounce home and
	// retry, and the network around the hotspot stays clear.
	queues := make([][2]*queue.Queue, 4)
	for i := range queues {
		queues[i] = [2]*queue.Queue{queue.New(8), queue.New(8)}
	}
	n, err := New(Config{DimX: 4, DimY: 1, DimZ: 1, ReturnToSender: true, RTSBackoff: 20}, queues)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 6
	for i := 0; i < sent; i++ {
		m := msgTo(n, 2, 0, 4)
		m.Words[1] = word.Int(int32(i))
		m.Src = 0
		n.Inject(0, m, 0)
	}
	// Let the queue fill (2 messages) and the rest bounce.
	for c := 0; c < 400; c++ {
		n.Step()
	}
	if n.Stats().ReturnedMsgs == 0 {
		t.Fatal("no messages were returned")
	}
	// While the receiver is stopped, traffic THROUGH the congested
	// region must still flow: node 0 -> node 3 passes node 2's router.
	through := msgTo(n, 3, 0, 2)
	n.Inject(0, through, 0)
	for c := 0; c < 400 && through.DeliverCycle == 0; c++ {
		n.Step()
	}
	if through.DeliverCycle == 0 {
		t.Fatal("through-traffic blocked despite return-to-sender")
	}
	// Drain the receiver: every refused message eventually arrives,
	// exactly once each.
	got := 0
	for c := 0; c < 20000 && got < sent; c++ {
		n.Step()
		if queues[2][0].HeadReady() {
			queues[2][0].Pop()
			got++
		}
	}
	if got != sent {
		t.Fatalf("delivered %d of %d after draining", got, sent)
	}
	if n.Stats().Retransmits == 0 {
		t.Error("no retransmissions recorded")
	}
}

func TestReturnToSenderRandomTrafficDeliversAll(t *testing.T) {
	// Property: with RTS enabled, tiny queues, and random traffic that
	// is drained slowly, every message is still delivered exactly once
	// (returns + retransmissions conserve messages).
	queues := make([][2]*queue.Queue, 8)
	for i := range queues {
		queues[i] = [2]*queue.Queue{queue.New(12), queue.New(12)}
	}
	n, err := New(Config{DimX: 8, DimY: 1, DimZ: 1, ReturnToSender: true, RTSBackoff: 16}, queues)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	const sent = 120
	for i := 0; i < sent; i++ {
		src := r.Intn(8)
		m := msgTo(n, r.Intn(8), 0, 3)
		m.Src = int32(src)
		n.Inject(src, m, 0)
	}
	var got uint64
	for c := 0; c < 400_000 && got < sent; c++ {
		n.Step()
		if c%7 == 0 { // slow consumers
			for i := range queues {
				if queues[i][0].HeadReady() {
					queues[i][0].Pop()
					got++
				}
			}
		}
	}
	for i := range queues {
		for queues[i][0].HeadReady() {
			queues[i][0].Pop()
			got++
		}
	}
	if got != sent {
		t.Fatalf("delivered %d of %d (returns=%d retransmits=%d)",
			got, sent, n.Stats().ReturnedMsgs, n.Stats().Retransmits)
	}
}

// TestPhitRefSize keeps the derived tail flag and destination copy in
// idx's padding: a buffer slot stays 24 bytes.
func TestPhitRefSize(t *testing.T) {
	if got := unsafe.Sizeof(phitRef{}); got != 24 {
		t.Errorf("phitRef is %d bytes, want 24", got)
	}
}

// TestRouteIsECube checks the table-driven route against e-cube order
// written out: X first, then Y, then Z, then the delivery port.
func TestRouteIsECube(t *testing.T) {
	want := func(d, at [3]int8) int8 {
		for i := 0; i < 3; i++ {
			switch {
			case d[i] > at[i]:
				return int8(2 * i) // PortXP, PortYP, PortZP
			case d[i] < at[i]:
				return int8(2*i + 1) // PortXM, PortYM, PortZM
			}
		}
		return PortLocal
	}
	vals := []int8{0, 1, 2, 7, 31}
	for _, x := range vals {
		for _, y := range vals {
			for _, z := range vals {
				r := router{x: x, y: y, z: z}
				for _, dx := range vals {
					for _, dy := range vals {
						for _, dz := range vals {
							p := phitRef{dx: dx, dy: dy, dz: dz}
							if got, w := r.route(&p), want([3]int8{dx, dy, dz}, [3]int8{x, y, z}); got != w {
								t.Fatalf("router (%d,%d,%d) to (%d,%d,%d): port %d, want %d", x, y, z, dx, dy, dz, got, w)
							}
						}
					}
				}
			}
		}
	}
}
