package network

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"jmachine/internal/bitset"
	"jmachine/internal/queue"
	"jmachine/internal/word"
)

// Arbitration selects how competing inputs win an output channel.
type Arbitration int

const (
	// FixedPriority arbitrates in fixed input-port order, as the MDP
	// router did. Under congestion some nodes can be locked out for
	// arbitrarily long — the unfairness the paper measured in radix sort.
	FixedPriority Arbitration = iota
	// RoundRobin rotates the winning input each cycle (fairness ablation).
	RoundRobin
)

// DefaultOutboxWords is the default per-priority injection buffer
// capacity in words. SEND instructions fault (and retry) when a message
// would overflow it — the network back-pressure the paper describes.
const DefaultOutboxWords = 32

// DefaultLaunchCycles is the network-interface pipeline latency between
// a completed send and the message's first phit entering the router —
// calibrated so a node's self-ping round trip lands at the paper's 43
// cycles (24 of network, 19 of thread execution).
const DefaultLaunchCycles = 3

// Config describes a mesh.
type Config struct {
	DimX, DimY, DimZ int
	OutboxWords      int // injection capacity per node per priority
	LaunchCycles     int // NI latency from send completion to first phit (-1 = none)
	Arbitration      Arbitration
	// ReturnToSender enables the flow-control protocol from the paper's
	// critique: a message whose destination queue cannot hold it is
	// drained at the delivery port and sent back to its source, which
	// retransmits it after RTSBackoff cycles. This keeps a stopped
	// receiver from blocking the network, at the cost of retry traffic.
	ReturnToSender bool
	// RTSBackoff is the retransmission delay in cycles (default 64).
	RTSBackoff int
	// MaxReturns bounds how many times a message may be refused before
	// the delivery port discards it instead of turning it around again
	// (0 = unbounded, the historical behaviour). Bounding converts the
	// livelock of a permanently-full receiver into a counted drop that
	// higher layers (rt.Reliable) can surface as an error.
	MaxReturns int
	// Checksum makes every injected message carry a checksum word (two
	// extra phits) that the delivery port verifies; corrupted worms are
	// drained and counted in Stats.CorruptDrops rather than delivered.
	// Without it, in-flight corruption is silently delivered.
	Checksum bool
}

func (c Config) withDefaults() Config {
	if c.DimX == 0 {
		c.DimX = 1
	}
	if c.DimY == 0 {
		c.DimY = 1
	}
	if c.DimZ == 0 {
		c.DimZ = 1
	}
	if c.OutboxWords == 0 {
		c.OutboxWords = DefaultOutboxWords
	}
	if c.LaunchCycles == 0 {
		c.LaunchCycles = DefaultLaunchCycles
	} else if c.LaunchCycles < 0 {
		c.LaunchCycles = 0
	}
	if c.RTSBackoff == 0 {
		c.RTSBackoff = 64
	}
	return c
}

// outbox is the per-node, per-priority injection queue: complete messages
// awaiting streaming into the router's local input port.
type outbox struct {
	msgs    []*Message
	phitIdx int32 // next phit of msgs[0] to inject
	words   int   // payload words across all queued messages
}

// Stats accumulates network-wide counters.
type Stats struct {
	Cycles         int64
	PhitHops       uint64 // phit-link traversals (mesh links only)
	BisectionPhits uint64 // phits crossing the mid-X plane, both directions
	DeliveredMsgs  [2]uint64
	DeliveredWords [2]uint64
	LatencySum     [2]uint64 // enqueue→final-word-delivered, in cycles
	DeliveryStalls uint64    // cycles a completed word waited on a full queue
	ReturnedMsgs   uint64    // messages refused and sent back (return-to-sender)
	Retransmits    uint64    // returned messages re-injected at their source
	DroppedMsgs    uint64    // messages discarded after exceeding MaxReturns
	CorruptDrops   uint64    // messages discarded on checksum failure
	DupDrops       uint64    // messages discarded by the delivery filter
	StallsInjected uint64    // phit moves blocked by an injected link stall
}

// MeanLatency returns the average message latency at priority pri.
func (s Stats) MeanLatency(pri int) float64 {
	if s.DeliveredMsgs[pri] == 0 {
		return 0
	}
	return float64(s.LatencySum[pri]) / float64(s.DeliveredMsgs[pri])
}

// Network is a DimX×DimY×DimZ mesh of wormhole routers with one delivery
// queue pair per node.
type Network struct {
	cfg     Config
	routers []router
	nbr     [][6]int32 // neighbour node index per direction, -1 at edges
	queues  [][2]*queue.Queue
	out     [][2]outbox
	rr      []uint8 // round-robin scan offsets
	cycle   int64
	stats   Stats

	// In-flight accounting for O(1) quiescence checks. actPhits counts
	// phits buffered in routers (== the sum of router occ between
	// cycles): +1 when a phit enters at feedInjection, -1 when one
	// retires at the delivery port; mesh hops are pop+push neutral.
	// actMsgs counts messages queued in outboxes; it is atomic because
	// the engine's node phase calls Inject from several goroutines.
	actPhits int64
	actMsgs  atomic.Int64

	// act is the active-router set the step loop iterates instead of
	// sweeping the mesh (docs/PERF.md, "Active sets"): router i is a
	// member whenever it may hold a phit or a queued outbox message.
	// Inject and a neighbour's push add it; the priority-0 pass removes
	// it, and takes back its slot block, once it holds nothing, so
	// between cycles the set is exact.
	// Derived state: outside the digest and the checkpoint, rebuilt by
	// RestoreState.
	act bitset.Set
	// act1 is the priority-1 set: router i is a member whenever it may
	// hold a priority-1 phit or a queued priority-1 message, so the
	// priority-1 pass walks only those. Inject at priority 1 and a
	// priority-1 push add it; the priority-1 pass removes it once it
	// holds neither, so between cycles this set is exact too. Derived
	// state, like act.
	act1 bitset.Set
	// routerVisits counts the routers a pass visited, and portVisits
	// the occupied input buffers stepRouter examined — host work, not
	// simulated state.
	routerVisits, portVisits int64

	// free holds the slot blocks no router holds, all zero; blocks counts
	// every block ever allocated, so that blocks minus len(free) are held
	// by active routers. Blocks are taken and returned only in Step's
	// sequential passes and in RestoreState, never in Inject (which runs
	// on the engine's node-phase goroutines). Host memory, outside the
	// digest and the checkpoint.
	free   []*slotBlock
	blocks int64

	// Fault-injection and delivery hooks (see Add*/Set* below). All are
	// optional; the hot paths pay only a nil/len check.
	injectFns  []func(node int, m *Message, cycle int64)
	deliverFns []func(node int, m *Message, cycle int64)
	dropFns    []func(node int, m *Message, reason DropReason, cycle int64)
	stallFn    func(node, port int, cycle int64) bool
	filterFn   func(node int, m *Message, cycle int64) bool
}

// New builds a mesh. queues supplies each node's priority-0 and
// priority-1 delivery queues, indexed by node id = x + DimX·(y + DimY·z).
func New(cfg Config, queues [][2]*queue.Queue) (*Network, error) {
	cfg = cfg.withDefaults()
	nodes := cfg.DimX * cfg.DimY * cfg.DimZ
	if len(queues) != nodes {
		return nil, fmt.Errorf("network: %d queue pairs for %d nodes", len(queues), nodes)
	}
	n := &Network{
		cfg:     cfg,
		routers: make([]router, nodes),
		nbr:     make([][6]int32, nodes),
		queues:  queues,
		out:     make([][2]outbox, nodes),
		rr:      make([]uint8, nodes),
		act:     bitset.New(nodes),
		act1:    bitset.New(nodes),
	}
	for z := 0; z < cfg.DimZ; z++ {
		for y := 0; y < cfg.DimY; y++ {
			for x := 0; x < cfg.DimX; x++ {
				id := n.NodeID(x, y, z)
				n.routers[id].init(x, y, z, cfg.DimX/2)
				nb := &n.nbr[id]
				for d := 0; d < 6; d++ {
					nb[d] = -1
				}
				if x+1 < cfg.DimX {
					nb[PortXP] = int32(n.NodeID(x+1, y, z))
				}
				if x > 0 {
					nb[PortXM] = int32(n.NodeID(x-1, y, z))
				}
				if y+1 < cfg.DimY {
					nb[PortYP] = int32(n.NodeID(x, y+1, z))
				}
				if y > 0 {
					nb[PortYM] = int32(n.NodeID(x, y-1, z))
				}
				if z+1 < cfg.DimZ {
					nb[PortZP] = int32(n.NodeID(x, y, z+1))
				}
				if z > 0 {
					nb[PortZM] = int32(n.NodeID(x, y, z-1))
				}
			}
		}
	}
	return n, nil
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.routers) }

// Dims returns the mesh dimensions.
func (n *Network) Dims() (x, y, z int) { return n.cfg.DimX, n.cfg.DimY, n.cfg.DimZ }

// NodeID maps coordinates to a node id.
func (n *Network) NodeID(x, y, z int) int {
	return x + n.cfg.DimX*(y+n.cfg.DimY*z)
}

// NodeCoords maps a node id to coordinates.
func (n *Network) NodeCoords(id int) (x, y, z int) {
	x = id % n.cfg.DimX
	id /= n.cfg.DimX
	return x, id % n.cfg.DimY, id / n.cfg.DimY
}

// NodeWord returns the node-tagged router address of a node id.
func (n *Network) NodeWord(id int) word.Word {
	x, y, z := n.NodeCoords(id)
	return word.Node(x, y, z)
}

// NodeFromWord resolves a node-tagged router address to a node id, or -1
// if the coordinates fall outside the mesh.
func (n *Network) NodeFromWord(w word.Word) int {
	x, y, z := w.NodeXYZ()
	if x >= n.cfg.DimX || y >= n.cfg.DimY || z >= n.cfg.DimZ {
		return -1
	}
	return n.NodeID(x, y, z)
}

// OutboxFree returns the free injection capacity, in words, at a node
// and priority. The processor's SEND instructions fault while a message
// would not fit.
func (n *Network) OutboxFree(node, pri int) int {
	return n.cfg.OutboxWords - n.out[node][pri].words
}

// Inject queues a complete message for transmission from node. The
// caller must have confirmed capacity via OutboxFree. delay defers the
// first phit by that many extra cycles (e.g. the memory latency of the
// send instruction's final operand).
func (n *Network) Inject(node int, m *Message, delay int32) {
	if n.cfg.Checksum {
		m.StampChecksum()
	}
	for _, fn := range n.injectFns {
		fn(node, m, n.cycle)
	}
	ob := &n.out[node][m.Pri]
	m.EnqueueCycle = n.cycle + int64(delay)
	ob.msgs = append(ob.msgs, m)
	ob.words += len(m.Words)
	n.actMsgs.Add(1)
	n.act.Add(node)
	if m.Pri == 1 {
		n.act1.Add(node)
	}
}

// AddInjectFn registers an observer called for every message handed to
// the network by a sender (not for internal return-to-sender requeues).
// Observers may mutate NI metadata: the chaos injector arms in-flight
// corruption here and the reliable-delivery runtime assigns sequence
// numbers. Hooks run in registration order.
func (n *Network) AddInjectFn(fn func(node int, m *Message, cycle int64)) {
	n.injectFns = append(n.injectFns, fn)
}

// AddDeliverFn registers an observer called when a message's tail enters
// its destination queue.
func (n *Network) AddDeliverFn(fn func(node int, m *Message, cycle int64)) {
	n.deliverFns = append(n.deliverFns, fn)
}

// AddDropFn registers an observer called when the network permanently
// discards a message (checksum failure, MaxReturns exhaustion, or the
// delivery filter).
func (n *Network) AddDropFn(fn func(node int, m *Message, reason DropReason, cycle int64)) {
	n.dropFns = append(n.dropFns, fn)
}

// SetStallFn installs the link-fault oracle: when it reports true for a
// (node, output port) pair, no phit crosses that channel this cycle.
// PortLocal covers both delivery and injection at the node. Used by the
// chaos injector to model stalled or broken links.
func (n *Network) SetStallFn(fn func(node, port int, cycle int64) bool) {
	n.stallFn = fn
}

// SetFilterFn installs the delivery filter: consulted at the head phit
// of every arriving message, a true return drains the worm without
// delivering it (counted in Stats.DupDrops). The reliable-delivery
// runtime suppresses duplicate retransmissions here.
func (n *Network) SetFilterFn(fn func(node int, m *Message, cycle int64) bool) {
	n.filterFn = fn
}

// SetChecksum toggles NI checksum protection after construction (safe
// before traffic starts; in-flight unstamped messages are unaffected
// because verification is skipped for messages without a stamp).
func (n *Network) SetChecksum(on bool) { n.cfg.Checksum = on }

// SetReturnToSender toggles return-to-sender flow control after
// construction.
func (n *Network) SetReturnToSender(on bool) { n.cfg.ReturnToSender = on }

// SetMaxReturns adjusts the refusal bound after construction.
func (n *Network) SetMaxReturns(k int) { n.cfg.MaxReturns = k }

// LaunchLatency returns the configured NI launch latency in cycles.
func (n *Network) LaunchLatency() int { return n.cfg.LaunchCycles }

// RouterOcc returns the number of phits buffered in node id's router —
// nonzero at quiescence indicates a wedged worm.
func (n *Network) RouterOcc(id int) int { return int(n.routers[id].occ) }

// LinkOcc returns the number of phits buffered in node id's input
// buffer for port (both priorities): the occupancy of the channel
// arriving from the neighbour in direction port, or of the injection
// path for PortLocal. Observability samples these as per-link counter
// tracks; reads must happen between cycles, when no pass is moving
// phits.
func (n *Network) LinkOcc(id, port int) int {
	r := &n.routers[id]
	return int(r.in[0][port].n) + int(r.in[1][port].n)
}

// OutboxDepth returns the number of messages queued for injection at a
// node and priority.
func (n *Network) OutboxDepth(node, pri int) int { return len(n.out[node][pri].msgs) }

// Pending reports whether any message traffic is still in flight
// anywhere in the network (buffers or outboxes). O(1): maintained
// incrementally at injection and retirement (TestPendingCounterMatchesScan
// cross-checks it against a full scan).
func (n *Network) Pending() bool {
	return n.actPhits != 0 || n.actMsgs.Load() != 0
}

// Quiet reports an empty network: no buffered phits, no queued
// messages. While quiet, Step degenerates to a cycle-counter increment
// (every router takes the empty fast path), which is what SkipCycles
// batches.
func (n *Network) Quiet() bool { return !n.Pending() }

// SkipCycles advances the network clock k cycles without stepping.
// Callers must hold the Quiet invariant for the whole window: stepping
// an empty mesh touches nothing but the cycle counter, so the jump is
// byte-identical to k empty Step calls.
func (n *Network) SkipCycles(k int64) { n.cycle += k }

// msgPool recycles Message objects (and their payload buffers)
// acquired via NewMessage, so the steady-state send path allocates
// nothing. Only leased messages are recycled: callers that build a
// Message by hand may legitimately keep a pointer past delivery
// (latency tests poll DeliverCycle), so those are never pooled.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage leases a zeroed Message from the recycling pool. The
// payload slice keeps its capacity (append reuses it); every other
// field reads as freshly allocated. The network reclaims the message
// when it permanently retires — delivered or dropped, after the hooks
// have run — so the caller must not retain it past injection.
func NewMessage() *Message {
	m := msgPool.Get().(*Message)
	*m = Message{Words: m.Words[:0], pooled: true}
	return m
}

// release returns a leased message to the pool at terminal retirement.
// No-op for hand-built messages.
func (n *Network) release(m *Message) {
	if !m.pooled {
		return
	}
	m.pooled = false
	msgPool.Put(m)
}

// Stats returns accumulated counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Cycles = n.cycle
	return s
}

// RouterVisits returns how many routers the step loop has visited
// since construction: proportional to traffic, not to mesh size. A
// host-work counter — exact at a seed, digest-exempt, not checkpointed.
func (n *Network) RouterVisits() int64 { return n.routerVisits }

// PortVisits returns how many occupied input buffers the step loop has
// examined since construction — each one a candidate phit move. A
// host-work counter like RouterVisits.
func (n *Network) PortVisits() int64 { return n.portVisits }

// SlotBlocks returns how many slot blocks the network has allocated
// since construction: the high-water count of routers holding phits at
// once, since a released block is reused before a new one is made. A
// host-work counter like RouterVisits.
func (n *Network) SlotBlocks() int64 { return n.blocks }

// takeBlock gives r a slot block from the free list, allocating one only
// when the list is empty.
func (n *Network) takeBlock(r *router) {
	if k := len(n.free); k > 0 {
		r.blk = n.free[k-1]
		n.free = n.free[:k-1]
		return
	}
	r.blk = new(slotBlock)
	n.blocks++
}

// putBlock returns r's slot block, if it holds one, to the free list.
// The caller has seen r hold no phit, and slots past a buffer's n are
// clear, so the block is all zero.
func (n *Network) putBlock(r *router) {
	if r.blk != nil {
		n.free = append(n.free, r.blk)
		r.blk = nil
	}
}

// Step advances the network one cycle: injection feeds, phit movement,
// and delivery, honouring priority-1 channel preference. It is the one
// way the mesh is stepped; deliver and drop hooks run inline, in
// router order.
func (n *Network) Step() {
	n.cycle++
	n.stepPass(1, n.cycle)
	n.stepPass(0, n.cycle)
}

// stepPass steps priority v at the routers of that priority's set (act1
// for priority 1, act for priority 0), in ascending order, a word of
// the set at a time (bitset.Set.Next shows the loop). Both levels
// re-read the set, so a router added ahead of the cursor during the
// pass (a neighbour's push, a deliver hook's Inject) is reached in this
// pass, exactly where a sweep over every router would have reached it.
//
// A visit does only the work it has: stepRouter runs when an input
// holds a priority-v phit and feedInjection when the priority-v outbox
// holds a message, evaluated in that order so that a message a deliver
// hook queues at this router is fed at once. Under RoundRobin the
// priority-0 visit also advances the router's rr cursor, on the
// trigger the sweep used: effOcc — start-of-cycle occupancy minus this
// cycle's pops, blind to same-cycle pushes whose visibility depends on
// visit order — or a queued priority-0 message. A visit whose set
// membership has lapsed removes the router.
func (n *Network) stepPass(v int, cyc int64) {
	set := n.act
	if v == 1 {
		set = n.act1
	}
	roundRobin := n.cfg.Arbitration == RoundRobin
	hi := len(n.routers)
	for ri := set.Next(0, hi); ri < hi; ri = set.Next(ri, hi) {
		for end := min(ri|63+1, hi); ri < end; ri = set.NextInWord(ri+1, end) {
			n.routerVisits++
			r := &n.routers[ri]
			ob := &n.out[ri][v]
			start := 0
			if roundRobin {
				start = int(n.rr[ri]) % NumPorts
				if v == 0 && (r.effOcc(cyc) != 0 || len(ob.msgs) != 0) {
					n.rr[ri]++ // once per cycle, after both priority passes
				}
			}
			if r.busy[v] != 0 {
				n.stepRouter(ri, r, v, start, cyc)
			}
			if len(ob.msgs) != 0 {
				n.feedInjection(ri, r, ob, v, cyc)
			}
			if v == 1 {
				if r.busy[1] == 0 && len(ob.msgs) == 0 {
					n.act1.Remove(ri)
				}
			} else if n.idle(ri) {
				n.act.Remove(ri) // last pass of the cycle and nothing left here
				n.putBlock(r)
			}
		}
	}
}

// idle reports whether router ri holds nothing at all — no buffered
// phit, no queued outbox message: between cycles, exactly the routers
// outside the active set.
func (n *Network) idle(ri int) bool {
	return n.routers[ri].occ == 0 && len(n.out[ri][0].msgs) == 0 && len(n.out[ri][1].msgs) == 0
}

// portAt maps an arbitration rank start+k (k < NumPorts) to its input
// port, start+k mod NumPorts.
var portAt = [2 * NumPorts]int8{0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6}

// stepRouter attempts to advance the head phit of each occupied input
// buffer at priority v, in arbitration order from input start (always
// 0 under FixedPriority). The occupied-port mask is read once: while a
// router steps, its own buffers only lose phits, and only at the port
// being visited. A phit that entered its buffer this cycle moves next
// cycle at the earliest. pop and push inline, and the hop's accounting
// is branch-free.
func (n *Network) stepRouter(ri int, r *router, v, start int, cyc int64) {
	ports := uint(r.busy[v])
	n.portVisits += int64(bits.OnesCount(ports))
	if start != 0 {
		// Rotate the mask so that bit k stands for port start+k:
		// ascending bits are then the arbitration order.
		ports = (ports>>start | ports<<(NumPorts-start)) & (1<<NumPorts - 1)
	}
	blk, owner, route := &r.blk[v], &r.outOwner[v], &r.inRoute[v]
	stall := n.stallFn
	var hops, cross uint64
	for ; ports != 0; ports &= ports - 1 {
		q := int(portAt[start+bits.TrailingZeros(ports)])
		s := &blk[q]
		head := &s[0]
		if head.arrived >= cyc {
			continue // entered this cycle; moves next cycle at the earliest
		}
		out := route[q]
		if out == noPort {
			out = r.route(head)
			if owner[out] != noPort {
				continue // output channel held by another worm
			}
			owner[out] = int8(q)
			route[q] = out
		}
		if r.linkStamp[out] == cyc {
			continue // physical channel already used this cycle
		}
		if stall != nil && stall(ri, int(out), cyc) {
			n.stats.StallsInjected++
			continue // injected link fault holds the channel
		}
		if out == PortLocal {
			n.deliverPhit(ri, r, v, q, s, cyc)
			continue
		}
		nb := n.nbr[ri][out]
		if nb < 0 {
			// e-cube can never route off the mesh edge; treat as a
			// wedged-worm bug rather than silently dropping traffic.
			panic(fmt.Sprintf("network: route off mesh edge at node %d port %d", ri, out))
		}
		nr := &n.routers[nb]
		nq := opposite[out]
		nbuf := &nr.in[v][nq]
		if nbuf.startOcc(cyc) >= bufCap {
			continue // downstream buffer full at cycle start
		}
		// A router holding a phit is in act and holds a slot block, and
		// one holding a priority-1 phit is in act1: only a push into an
		// empty one adds.
		if nr.occ == 0 {
			n.act.Add(int(nb))
			if nr.blk == nil {
				n.takeBlock(nr)
			}
		}
		if v == 1 && nr.busy[1] == 0 {
			n.act1.Add(int(nb))
		}
		p := r.pop(v, q, s, cyc)
		r.linkStamp[out] = cyc
		p.arrived = cyc
		nr.push(v, nq, p, cyc)
		hops++
		cross += uint64(r.cross >> out & 1)
		// A tail frees the output and the input: noPort is all ones.
		free := -int8(b2i(p.tail))
		owner[out] |= free
		route[q] |= free
	}
	n.stats.PhitHops += hops
	n.stats.BisectionPhits += cross
}

// deliverPhit retires the head phit of input q, whose slots are s, into
// the local delivery queue. Even phits (first half of a word) are absorbed
// freely; odd phits complete a word, which must be accepted by the
// queue.
//
// At the head phit the port decides the worm's fate: a homecoming
// refused message is drained for retransmission; a corrupted message
// (checksum mismatch) is drained and dropped; the delivery filter may
// drop duplicates; and with return-to-sender flow control a message that
// would not fit in the destination queue is drained and turned around —
// or dropped once it has been refused MaxReturns times.
func (n *Network) deliverPhit(ri int, r *router, v, q int, s *[bufCap]phitRef, cyc int64) {
	head := &s[0]
	m := head.m
	if head.idx == 0 && !m.absorb {
		switch {
		case n.cfg.ReturnToSender && m.Returning:
			m.absorb = true // arriving back home: drain and requeue
		case !m.CheckOK():
			m.absorb, m.drop = true, true
			m.dropReason = DropCorrupt
			n.stats.CorruptDrops++
		case n.filterFn != nil && n.filterFn(ri, m, cyc):
			m.absorb, m.drop = true, true
			m.dropReason = DropFiltered
			n.stats.DupDrops++
		case n.cfg.ReturnToSender &&
			n.queues[ri][v].Free() < len(m.Words) && n.queues[ri][v].Cap() >= len(m.Words):
			if n.cfg.MaxReturns > 0 && int(m.Returns) >= n.cfg.MaxReturns {
				m.absorb, m.drop = true, true
				m.dropReason = DropMaxReturns
				n.stats.DroppedMsgs++
			} else {
				m.absorb = true // refuse: drain and turn around
			}
		}
	}
	if m.absorb {
		n.absorbPhit(ri, r, v, q, s, cyc)
		return
	}
	w, complete := head.payloadWord()
	if complete {
		if !n.queues[ri][v].Push(w) {
			n.stats.DeliveryStalls++
			return // queue full; back-pressure into the network
		}
	}
	p := r.pop(v, q, s, cyc)
	r.linkStamp[PortLocal] = cyc
	n.actPhits--
	if complete {
		n.stats.DeliveredWords[v]++
	}
	if p.tail {
		p.m.DeliverCycle = cyc
		n.stats.DeliveredMsgs[v]++
		n.stats.LatencySum[v] += uint64(cyc - p.m.EnqueueCycle)
		r.outOwner[v][PortLocal] = noPort
		r.inRoute[v][q] = noPort
		for _, fn := range n.deliverFns {
			fn(ri, p.m, cyc)
		}
		n.release(p.m)
	}
}

// absorbPhit drains one phit of a refused, corrupted, filtered, or
// homecoming worm at the delivery port. At the tail the message is
// either discarded (drop set) or re-injected: back toward the source
// (refusal) or toward its true destination after the backoff
// (retransmission).
func (n *Network) absorbPhit(ri int, r *router, v, q int, s *[bufCap]phitRef, cyc int64) {
	p := r.pop(v, q, s, cyc)
	r.linkStamp[PortLocal] = cyc
	n.actPhits--
	if !p.tail {
		return
	}
	m := p.m
	r.outOwner[v][PortLocal] = noPort
	r.inRoute[v][q] = noPort
	m.absorb = false
	if m.drop {
		m.drop = false
		for _, fn := range n.dropFns {
			fn(ri, m, m.dropReason, cyc)
		}
		n.release(m)
		return
	}
	ob := &n.out[ri][v]
	if m.Returning {
		// Home again: restore the true destination and retransmit
		// after the backoff.
		m.Returning = false
		m.DestX, m.DestY, m.DestZ = m.origX, m.origY, m.origZ
		m.EnqueueCycle = cyc + int64(n.cfg.RTSBackoff)
		n.stats.Retransmits++
	} else {
		// Refused: turn the message around toward its source.
		m.Returning = true
		m.Returns++
		m.origX, m.origY, m.origZ = m.DestX, m.DestY, m.DestZ
		sx, sy, sz := n.NodeCoords(int(m.Src))
		m.DestX, m.DestY, m.DestZ = int8(sx), int8(sy), int8(sz)
		m.EnqueueCycle = cyc
		n.stats.ReturnedMsgs++
	}
	// Hardware-level requeue: bypasses the injection capacity check
	// (the words were already accounted to this node's outbox only if
	// it was the original sender; returns ride free).
	ob.msgs = append(ob.msgs, m)
	ob.words += len(m.Words)
	n.actMsgs.Add(1)
}

// feedInjection streams the node's next outgoing phit at priority v into
// the router's local input buffer, one phit per cycle. The caller has
// seen ob hold a message.
func (n *Network) feedInjection(ri int, r *router, ob *outbox, v int, cyc int64) {
	if n.stallFn != nil && n.stallFn(ri, PortLocal, cyc) {
		n.stats.StallsInjected++
		return // injected NI fault: nothing enters the router
	}
	if r.in[v][PortLocal].startOcc(cyc) >= bufCap {
		return
	}
	m := ob.msgs[0]
	if ob.phitIdx == 0 && cyc < m.EnqueueCycle+int64(n.cfg.LaunchCycles) {
		return // network-interface launch latency
	}
	if r.blk == nil {
		n.takeBlock(r)
	}
	r.push(v, PortLocal, newPhit(m, ob.phitIdx, cyc), cyc)
	n.actPhits++
	ob.phitIdx++
	if ob.phitIdx == m.WirePhits() {
		// Shift down in place so the outbox keeps its backing array:
		// re-slicing past the head would leak capacity and make later
		// appends reallocate.
		ob.msgs = slices.Delete(ob.msgs, 0, 1)
		ob.words -= len(m.Words)
		ob.phitIdx = 0
		n.actMsgs.Add(-1)
	}
}
