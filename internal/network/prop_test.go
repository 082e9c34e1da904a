package network

// Property tests and the fuzz target for the phit-level mesh. One
// generator drives both: seeded random traffic over a mesh of any
// shape, under either arbitration and one of seven delivery regimes,
// with consumers that drain the queues at a seeded uneven rate so the
// mesh sees back-pressure. Every cycle the run checks the network's
// own bookkeeping (CheckInvariants); at the receivers it checks
// payload integrity, no duplication and — wherever the regime
// guarantees it — per-(src, dst, pri) order; at the end, that every
// message was delivered or counted as dropped and that the mesh drained
// within a bound. A run whose traffic is injected from k node slabs on
// k goroutines, as the engine's node phase reaches Inject, must show
// the in-order run's state digest after every cycle, and so must a run
// whose network and queues were restored, mid-traffic, from a
// checkpoint of the in-order run taken some cycles behind it.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/queue"
	"jmachine/internal/word"
)

// trafficMode is the delivery regime a scenario runs under.
type trafficMode uint8

const (
	modePlain    trafficMode = iota
	modeRTS                  // ReturnToSender + MaxReturns against slow consumers
	modeChecksum             // Checksum with corruption armed on some messages
	modeStall                // a stallFn freezing seeded links in 8-cycle windows
	modeHookAck              // a deliver hook injecting an ack at the delivering node, as rt.Reliable does
	modeP0                   // priority-0 traffic only: the priority-1 set stays empty
	modeP0Hook               // priority-0 traffic whose deliveries inject priority-1 acks mid-pass
	numModes
)

var modeNames = [numModes]string{"plain", "rts", "checksum", "stall", "hookack", "p0", "p0hook"}

// scenario is one generated run.
type scenario struct {
	x, y, z int
	arb     Arbitration
	mode    trafficMode
	seed    int64
	cycles  int // cycles of generated traffic; the drain follows
}

func (sc scenario) String() string {
	return fmt.Sprintf("%dx%dx%d/arb%d/%s/seed%d", sc.x, sc.y, sc.z, sc.arb, modeNames[sc.mode], sc.seed)
}

// drainBound is how long after the last generated message the mesh may
// take to empty. E-cube routing over bounded buffers cannot deadlock
// while the receivers keep consuming, so hitting it is a wedge.
const drainBound = 20_000

// mix64 is a pure hash for decisions that must not depend on call
// order.
func mix64(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

type flow struct{ src, dst, pri int }

type injection struct {
	src   int
	m     *Message
	delay int32
}

// propRun is one scenario in flight.
type propRun struct {
	t   testing.TB
	sc  scenario
	n   *Network
	qs  [][2]*queue.Queue
	k   int // node slabs injecting concurrently; 1 injects in order
	rng *rand.Rand
	cyc int

	nextSeq map[flow]int
	lastSeq map[flow]int
	seen    map[[4]int]bool
	staged  []injection // this cycle's generated traffic, in generation order

	sent, corrupted, delivered, dropped int
}

func newPropRun(t testing.TB, sc scenario, slabs int) *propRun {
	nodes := sc.x * sc.y * sc.z
	cfg := Config{DimX: sc.x, DimY: sc.y, DimZ: sc.z, Arbitration: sc.arb}
	qcap := 16
	switch sc.mode {
	case modeRTS:
		cfg.ReturnToSender, cfg.RTSBackoff, cfg.MaxReturns = true, 8, 2
		qcap = 12
	case modeChecksum:
		cfg.Checksum = true
	}
	qs := make([][2]*queue.Queue, nodes)
	for i := range qs {
		qs[i] = [2]*queue.Queue{queue.New(qcap), queue.New(qcap)}
	}
	n, err := New(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	p := &propRun{t: t, sc: sc, n: n, qs: qs, k: slabs, rng: rand.New(rand.NewSource(sc.seed)),
		nextSeq: map[flow]int{}, lastSeq: map[flow]int{}, seen: map[[4]int]bool{}}
	n.AddDropFn(func(int, *Message, DropReason, int64) { p.dropped++ })
	switch sc.mode {
	case modeStall:
		n.SetStallFn(func(node, port int, cyc int64) bool {
			return cyc < int64(sc.cycles) &&
				mix64(uint64(sc.seed), uint64(node), uint64(port), uint64(cyc>>3))%4 == 0
		})
	case modeHookAck, modeP0Hook:
		n.AddDeliverFn(func(node int, m *Message, _ int64) {
			if !m.Ctl {
				// Privileged NI traffic: bypasses the outbox capacity check.
				n.Inject(node, p.message(node, int(m.Src), 1, 2, true), 0)
			}
		})
	}
	return p
}

// message builds the next message of its flow. The header's handler
// field carries src<<12|seq so the receiver can attribute and order it;
// the body is a function of (seq, index) so corruption shows.
func (p *propRun) message(src, dst, pri, words int, ctl bool) *Message {
	f := flow{src, dst, pri}
	seq := p.nextSeq[f]
	p.nextSeq[f]++
	if src >= 1<<12 || seq >= 1<<12 {
		p.t.Fatalf("flow %v seq %d does not fit the header encoding", f, seq)
	}
	x, y, z := p.n.NodeCoords(dst)
	m := &Message{DestX: int8(x), DestY: int8(y), DestZ: int8(z), Pri: int8(pri), Src: int32(src), Ctl: ctl}
	m.Words = append(m.Words, word.MsgHeader(int32(src<<12|seq), words))
	for i := 1; i < words; i++ {
		m.Words = append(m.Words, word.Int(int32(seq*31+i)))
	}
	p.sent++
	return m
}

// generate stages this cycle's traffic. The number of generator draws
// per cycle is fixed, so two runs of one scenario stay in step.
func (p *propRun) generate() {
	p.staged = p.staged[:0]
	if p.cyc >= p.sc.cycles {
		return
	}
	nodes := p.n.Nodes()
	room := map[[2]int]int{}
	for i := 0; i < 1+nodes/32; i++ {
		go3, src, dst := p.rng.Intn(3), p.rng.Intn(nodes), p.rng.Intn(nodes)
		hot, pri, words, delay := p.rng.Intn(8), p.rng.Intn(2), 1+p.rng.Intn(7), p.rng.Intn(3)
		corrupt, cw, cm := p.rng.Intn(4), p.rng.Intn(words), uint32(1)<<p.rng.Intn(30)
		if go3 != 0 {
			continue
		}
		if hot == 0 {
			dst = p.hotspot()
		}
		if p.sc.mode == modeP0 || p.sc.mode == modeP0Hook {
			pri = 0
		}
		key := [2]int{src, pri}
		if _, ok := room[key]; !ok {
			room[key] = p.n.OutboxFree(src, pri)
		}
		if room[key] < words {
			continue
		}
		room[key] -= words
		m := p.message(src, dst, pri, words, false)
		if p.sc.mode == modeChecksum && corrupt == 0 {
			m.CorruptWord, m.CorruptMask = int32(cw), cm
			p.corrupted++
		}
		p.staged = append(p.staged, injection{src, m, int32(delay)})
	}
}

// inject hands the staged traffic to the network: in order with one
// slab, else from k contiguous node slabs on k goroutines — different
// nodes' outboxes are independent, and that is how the engine's node
// phase reaches Inject.
func (p *propRun) inject() {
	if p.k <= 1 {
		for _, in := range p.staged {
			p.n.Inject(in.src, in.m, in.delay)
		}
		return
	}
	injectSlabs(p.n, p.k, func(lo, hi int) {
		for _, in := range p.staged {
			if in.src >= lo && in.src < hi {
				p.n.Inject(in.src, in.m, in.delay)
			}
		}
	})
}

// injectSlabs runs inject on k goroutines, one per contiguous node slab
// [lo, hi) — the engine's node-phase partition — and waits for them.
func injectSlabs(n *Network, k int, inject func(lo, hi int)) {
	nodes := n.Nodes()
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			inject(lo, hi)
		}(s*nodes/k, (s+1)*nodes/k)
	}
	wg.Wait()
}

// hotspot is the node an eighth of the traffic converges on.
func (p *propRun) hotspot() int { return int(uint64(p.sc.seed) % uint64(len(p.qs))) }

// consume pops ready messages: all of them while draining; before, one
// per queue on a seeded third of the cycles, and far fewer at the
// hotspot and every fourth node or so, whose queues therefore fill —
// stalling deliveries back into the mesh, or under return-to-sender
// refusing them until MaxReturns drops some.
func (p *propRun) consume(drain bool) {
	for node := range p.qs {
		slow := uint64(3)
		if node == p.hotspot() || mix64(uint64(p.sc.seed), uint64(node))%4 == 0 {
			slow = 48
		}
		for pri := 0; pri < 2; pri++ {
			q := p.qs[node][pri]
			if drain {
				for q.HeadReady() {
					p.receive(node, pri, q)
				}
			} else if q.HeadReady() && mix64(uint64(p.sc.seed), uint64(node), uint64(pri), uint64(p.cyc))%slow == 0 {
				p.receive(node, pri, q)
			}
		}
	}
}

func (p *propRun) receive(node, pri int, q *queue.Queue) {
	id := int(q.WordAt(0).HeaderIP())
	f := flow{id >> 12, node, pri}
	seq := id & (1<<12 - 1)
	if seq >= p.nextSeq[f] {
		p.t.Fatalf("%v cycle %d: node %d received flow %v seq %d, never sent", p.sc, p.cyc, node, f, seq)
	}
	for i := 1; i < q.HeadLen(); i++ {
		if got, want := q.WordAt(i).Data(), int32(seq*31+i); got != want {
			p.t.Fatalf("%v cycle %d: flow %v seq %d word %d = %d, want %d", p.sc, p.cyc, f, seq, i, got, want)
		}
	}
	key := [4]int{f.src, f.dst, f.pri, seq}
	if p.seen[key] {
		p.t.Fatalf("%v cycle %d: flow %v seq %d delivered twice", p.sc, p.cyc, f, seq)
	}
	p.seen[key] = true
	// A refused message retransmits after later ones got through, so
	// return-to-sender keeps no order; every other regime does.
	if last, ok := p.lastSeq[f]; ok && seq < last && p.sc.mode != modeRTS {
		p.t.Fatalf("%v cycle %d: flow %v seq %d delivered after seq %d", p.sc, p.cyc, f, seq, last)
	}
	p.lastSeq[f] = seq
	q.Pop()
	p.delivered++
}

// digest folds everything a run can observe: the network's state, the
// delivery queues' and the receivers' counts.
func (p *propRun) digest() uint64 {
	h := p.n.StateDigest()
	for _, q := range p.qs {
		h = q[1].StateDigest(q[0].StateDigest(h))
	}
	return digestMix(h, uint64(p.delivered)<<32|uint64(p.dropped))
}

// advance runs one cycle: generate, inject, step, consume.
func (p *propRun) advance() {
	p.generate()
	p.inject()
	p.n.Step()
	p.consume(p.cyc >= p.sc.cycles)
	p.cyc++
}

// run drives the scenario to a drained mesh, calling each after every
// cycle, and checks the end-of-run properties.
func (p *propRun) run(each func(cycle int)) {
	for p.cyc < p.sc.cycles || p.n.Pending() {
		if p.cyc > p.sc.cycles+drainBound {
			p.t.Fatalf("%v: mesh not drained %d cycles after the last injection", p.sc, drainBound)
		}
		p.advance()
		if err := p.n.CheckInvariants(); err != nil {
			p.t.Fatalf("%v cycle %d: %v", p.sc, p.cyc, err)
		}
		each(p.cyc)
	}
	p.consume(true)
	if p.delivered+p.dropped != p.sent {
		p.t.Fatalf("%v: sent %d, delivered %d + dropped %d", p.sc, p.sent, p.delivered, p.dropped)
	}
	st := p.n.Stats()
	switch p.sc.mode {
	case modeRTS:
		if uint64(p.dropped) != st.DroppedMsgs {
			p.t.Fatalf("%v: %d drops seen, Stats.DroppedMsgs = %d", p.sc, p.dropped, st.DroppedMsgs)
		}
	case modeChecksum:
		if p.dropped != p.corrupted || uint64(p.dropped) != st.CorruptDrops {
			p.t.Fatalf("%v: %d corrupted, %d dropped, Stats.CorruptDrops = %d", p.sc, p.corrupted, p.dropped, st.CorruptDrops)
		}
	default:
		if p.dropped != 0 {
			p.t.Fatalf("%v: %d messages dropped", p.sc, p.dropped)
		}
	}
}

// checkScenario runs sc injecting in order, then from k slabs at each
// k, then through a checkpoint round trip (checkRestore), requiring the
// in-order digest after every cycle.
func checkScenario(t testing.TB, sc scenario, ks ...int) {
	var want []uint64
	seq := newPropRun(t, sc, 1)
	seq.run(func(int) { want = append(want, seq.digest()) })
	for _, k := range ks {
		sh := newPropRun(t, sc, k)
		sh.run(func(c int) {
			if c > len(want) || sh.digest() != want[c-1] {
				t.Fatalf("%v slabs=%d: state diverged from the in-order run at cycle %d", sc, k, c)
			}
		})
		if sh.cyc != len(want) {
			t.Fatalf("%v slabs=%d: drained at cycle %d, in order at %d", sc, k, sh.cyc, len(want))
		}
	}
	checkRestore(t, sc, want)
}

// checkRestore round-trips a network checkpoint mid-traffic. One run of
// sc stops at cycle at and saves its network and delivery queues. A
// second run goes on further, so that other routers hold slot blocks,
// then restores that checkpoint and takes over the first run's traffic
// state. From there it must show the uninterrupted run's digest, want,
// after every cycle, with its bookkeeping clean (run checks
// CheckInvariants every cycle). It returns how many routers the restore
// had to take a slot block from, and how many it had to give one.
func checkRestore(t testing.TB, sc scenario, want []uint64) (released, taken int) {
	at := sc.cycles / 2
	ref, fwd := newPropRun(t, sc, 1), newPropRun(t, sc, 1)
	for ref.cyc < at {
		ref.advance()
	}
	for fwd.cyc < at+1+sc.cycles/4 {
		fwd.advance()
	}
	var e wire.Encoder
	ref.n.SaveState(&e)
	for _, q := range ref.qs {
		q[0].SaveState(&e)
		q[1].SaveState(&e)
	}
	for ri := range fwd.n.routers {
		had, has := fwd.n.routers[ri].blk != nil, ref.n.routers[ri].occ > 0
		released += b2i(had && !has)
		taken += b2i(has && !had)
	}
	d := wire.NewDecoder(e.Bytes())
	err := fwd.n.RestoreState(d)
	for _, q := range fwd.qs {
		for pri := 0; pri < 2 && err == nil; pri++ {
			err = q[pri].RestoreState(d)
		}
	}
	if err != nil {
		t.Fatalf("%v: restore at cycle %d: %v", sc, at, err)
	}
	// The hooks fwd's network holds read fwd's traffic state through
	// fwd, so it takes ref's over in place.
	n, qs := fwd.n, fwd.qs
	*fwd = *ref
	fwd.n, fwd.qs = n, qs
	if err := fwd.n.CheckInvariants(); err != nil {
		t.Fatalf("%v: restored at cycle %d: %v", sc, at, err)
	}
	if fwd.digest() != want[at-1] {
		t.Fatalf("%v: restored state differs from the saved one at cycle %d", sc, at)
	}
	fwd.run(func(c int) {
		if c > len(want) || fwd.digest() != want[c-1] {
			t.Fatalf("%v: restored at cycle %d, diverged from the uninterrupted run at cycle %d", sc, at, c)
		}
	})
	if fwd.cyc != len(want) {
		t.Fatalf("%v: restored at cycle %d, drained at cycle %d, uninterrupted at %d", sc, at, fwd.cyc, len(want))
	}
	return released, taken
}

// TestRestoreMovesSlotBlocks checks that the round trip exercises both
// directions of RestoreState's slot-block handling on a busy mesh: the
// run restored into holds blocks at routers the checkpoint leaves
// empty, and lacks them at routers the checkpoint fills.
func TestRestoreMovesSlotBlocks(t *testing.T) {
	sc := scenario{5, 5, 3, FixedPriority, modePlain, 31, 300}
	var want []uint64
	p := newPropRun(t, sc, 1)
	p.run(func(int) { want = append(want, p.digest()) })
	released, taken := checkRestore(t, sc, want)
	t.Logf("%v: restore returned %d slot blocks and took %d", sc, released, taken)
	if released == 0 || taken == 0 {
		t.Errorf("%v: restore returned %d slot blocks and took %d; want both > 0", sc, released, taken)
	}
}

// propShapes covers a single node, a 1×1×N line longer than one bitmap
// word, non-power-of-two meshes, exactly one full word (4×4×4), and
// meshes whose last word is partial.
var propShapes = [][3]int{{1, 1, 1}, {1, 1, 70}, {3, 1, 1}, {5, 3, 1}, {4, 4, 4}, {5, 5, 3}, {3, 7, 4}}

func TestNetworkProperties(t *testing.T) {
	for si, sh := range propShapes {
		for arb := FixedPriority; arb <= RoundRobin; arb++ {
			for mode := trafficMode(0); mode < numModes; mode++ {
				sc := scenario{sh[0], sh[1], sh[2], arb, mode, int64(100*si + 10*int(arb) + int(mode) + 1), 300}
				if testing.Short() && (si+int(arb)+int(mode))%3 != 0 {
					continue
				}
				t.Run(sc.String(), func(t *testing.T) {
					t.Parallel()
					checkScenario(t, sc, 2, 3, 7)
				})
			}
		}
	}
}

// fuzzScenario decodes the fuzzer's arguments into a scenario and a
// slab count.
func fuzzScenario(seed int64, shape uint16, knobs uint8) (scenario, int) {
	sc := scenario{seed: seed, cycles: 120,
		mode: trafficMode(knobs&7) % numModes, arb: Arbitration(knobs >> 3 & 1)}
	if shape&0x8000 != 0 {
		sc.x, sc.y, sc.z = 1, 1, 1+int(shape&0x7FFF)%97
	} else {
		s := int(shape)
		sc.x, sc.y, sc.z = 1+s%6, 1+s/6%6, 1+s/36%4
	}
	return sc, [...]int{2, 3, 7}[int(knobs>>4)%3]
}

func FuzzNetwork(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(7), uint16(0x8000|69), uint8(0x0C))
	f.Add(int64(11), uint16(4+6*4+36*2), uint8(0x21))
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, knobs uint8) {
		sc, k := fuzzScenario(seed, shape, knobs)
		checkScenario(t, sc, k)
	})
}

// pinned holds network states recorded at the parent of the commit that
// replaced the per-cycle router sweep with the active-router bitmap
// (docs/PERF.md, "Active sets"): the state digest and the statistics of
// four scenarios, mid-traffic. No equivalence suite runs RoundRobin or
// these delivery regimes, so without the table the rr cursor's
// dependence on which routers a pass steps would be unguarded.
var pinned = []struct {
	sc     scenario
	at     int // cycles run
	digest uint64
	stats  Stats
}{
	{sc: scenario{5, 5, 3, RoundRobin, modeHookAck, 21, 300}, at: 250, digest: 0xdf06880b03949308,
		stats: Stats{Cycles: 250, PhitHops: 16248, BisectionPhits: 1935,
			DeliveredMsgs: [2]uint64{89, 269}, DeliveredWords: [2]uint64{364, 754},
			LatencySum: [2]uint64{3491, 5594}, DeliveryStalls: 41}},
	{sc: scenario{3, 7, 4, RoundRobin, modeRTS, 22, 300}, at: 250, digest: 0xa283a342feb15975,
		stats: Stats{Cycles: 250, PhitHops: 11446, BisectionPhits: 1080,
			DeliveredMsgs: [2]uint64{84, 96}, DeliveredWords: [2]uint64{345, 416},
			LatencySum: [2]uint64{2371, 2067}, ReturnedMsgs: 9, Retransmits: 6, DroppedMsgs: 1}},
	{sc: scenario{1, 1, 70, FixedPriority, modeChecksum, 23, 300}, at: 250, digest: 0xa736837da14790f2,
		stats: Stats{Cycles: 250, PhitHops: 14295,
			DeliveredMsgs: [2]uint64{8, 34}, DeliveredWords: [2]uint64{34, 167},
			LatencySum: [2]uint64{569, 2629}, CorruptDrops: 13}},
	{sc: scenario{4, 4, 4, RoundRobin, modeStall, 24, 300}, at: 250, digest: 0x1c308f0e654c8d6a,
		stats: Stats{Cycles: 250, PhitHops: 7330, BisectionPhits: 1067,
			DeliveredMsgs: [2]uint64{63, 81}, DeliveredWords: [2]uint64{269, 310},
			LatencySum: [2]uint64{4852, 4607}, DeliveryStalls: 28, StallsInjected: 9383}},
}

func TestSteppingPinnedToParent(t *testing.T) {
	for _, pin := range pinned {
		for _, k := range []int{1, 2, 3, 7} {
			p := newPropRun(t, pin.sc, k)
			for p.cyc < pin.at {
				p.advance()
			}
			if got := p.n.StateDigest(); got != pin.digest {
				t.Errorf("%v slabs=%d: digest %#016x at cycle %d, parent had %#016x", pin.sc, k, got, pin.at, pin.digest)
			}
			if got := p.n.Stats(); got != pin.stats {
				t.Errorf("%v slabs=%d: stats at cycle %d\n got  %+v\n want %+v", pin.sc, k, pin.at, got, pin.stats)
			}
		}
	}
}
