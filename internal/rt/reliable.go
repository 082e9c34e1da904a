package rt

import (
	"fmt"
	"sort"
	"sync/atomic"

	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/network"
	"jmachine/internal/word"
)

// ReliableConfig tunes the reliable-delivery runtime.
type ReliableConfig struct {
	// TimeoutCycles is the base acknowledgement timeout; retransmission
	// n waits TimeoutCycles<<n (exponential backoff). Default 2048.
	TimeoutCycles int64
	// MaxRetries bounds retransmissions per message; exceeding it fails
	// the sending node with a surfaced error instead of retrying
	// forever — the issue's livelock-to-error conversion. Default 8.
	MaxRetries int
	// ScanInterval is how often (cycles) the timeout scan runs.
	// Default 64.
	ScanInterval int64
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.TimeoutCycles <= 0 {
		c.TimeoutCycles = 2048
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = 64
	}
	return c
}

// ReliableStats counts the protocol's work. The runtime's hooks fire
// from several goroutines under the parallel engine (injection from
// the node phase, acknowledgement retirement from per-node handler
// execution), so the counters are maintained atomically.
type ReliableStats struct {
	Tracked      uint64 // messages assigned sequence numbers
	AcksSent     uint64 // acknowledgements injected by receivers
	AcksReceived uint64 // acknowledgements retired at senders
	Retries      uint64 // retransmissions (timeout- or drop-triggered)
	DupAcked     uint64 // duplicate deliveries suppressed and re-acked
	Failures     uint64 // messages abandoned after MaxRetries
}

// pendingMsg is a sender-side retransmission record: enough to rebuild
// the message from scratch, because the in-flight copy is consumed (or
// corrupted) by the network.
type pendingMsg struct {
	src                 int
	destX, destY, destZ int8
	pri                 int8
	words               []word.Word
	deadline            int64
	attempts            int
}

// relNode is the per-source-node protocol state. Keeping the sequence
// counter and the pending map per node (rather than global) makes the
// injection path shard-local: two nodes injecting in the same cycle on
// different engine shards touch disjoint state, and the sequence
// numbers they draw are independent of injection order.
type relNode struct {
	count   int32 // messages sequenced by this node so far
	pending map[int32]*pendingMsg
}

// Reliable is the NI-level reliable-delivery runtime: every message
// injected while it is attached gets a sequence number; the receiving
// NI acknowledges delivery with a real priority-1 message dispatching
// the rt.dack handler; unacknowledged messages are retransmitted with
// exponential backoff, duplicates are suppressed at the delivery port,
// and a message still unacknowledged after MaxRetries fails its sender
// node with a diagnosable error instead of retrying forever.
//
// Concurrency contract under the engine: onInject runs in the node
// phase and touches only the injecting node's relNode; onDeliver,
// onDrop, filterDup and retransmission run on the coordinator (network
// phase and cycle hooks); svcDack runs in the node phase on the owning
// node's relNode. Stats are atomic.
type Reliable struct {
	rt    *Runtime
	cfg   ReliableConfig
	nn    int32 // machine node count: the sequence-number stride
	nodes []relNode
	stats ReliableStats

	// seen maps delivered sequence numbers to their delivery cycle.
	// Entries older than the longest possible retransmission schedule
	// are pruned by tick, bounding the filter by protocol activity
	// rather than by total messages ever sent.
	seen map[int32]int64
	err  error // first MaxRetries exhaustion
}

// EnableReliable attaches the reliable-delivery runtime. The machine's
// program must include the rt library with the rt.dack handler (any
// program assembled against the current BuildLib does).
func EnableReliable(r *Runtime, cfg ReliableConfig) *Reliable {
	if r.dack <= 0 {
		panic("rt: EnableReliable requires a program with the rt.dack handler (rebuild with BuildLib)")
	}
	rel := &Reliable{
		rt:    r,
		cfg:   cfg.withDefaults(),
		nn:    int32(r.M.NumNodes()),
		nodes: make([]relNode, r.M.NumNodes()),
		seen:  make(map[int32]int64),
	}
	r.RegisterService(SvcDack, rel.svcDack)
	net := r.M.Net
	net.AddInjectFn(rel.onInject)
	net.AddDeliverFn(rel.onDeliver)
	net.AddDropFn(rel.onDrop)
	net.SetFilterFn(rel.filterDup)
	r.M.AddCycleHook(rel.tick, rel.horizon) //jm:horizon nearest retransmit deadline (or none pending) bounds tick's next effect
	return rel
}

// horizon declares tick's event horizon: with no pending messages the
// scan is a guaranteed no-op on every cycle (NoEvent); otherwise the
// next ScanInterval multiple, where a timeout could retransmit or fail
// a node. Pending entries are only created by injection hooks — which
// require a node to execute a send, so the machine cannot be skipping —
// making the no-pending declaration safe across a whole dead window.
func (rel *Reliable) horizon(now int64) int64 {
	if rel.Pending() == 0 {
		return machine.NoEvent
	}
	return (now/rel.cfg.ScanInterval + 1) * rel.cfg.ScanInterval
}

// Stats returns a snapshot of the protocol counters.
func (rel *Reliable) Stats() ReliableStats {
	return ReliableStats{
		Tracked:      atomic.LoadUint64(&rel.stats.Tracked),
		AcksSent:     atomic.LoadUint64(&rel.stats.AcksSent),
		AcksReceived: atomic.LoadUint64(&rel.stats.AcksReceived),
		Retries:      atomic.LoadUint64(&rel.stats.Retries),
		DupAcked:     atomic.LoadUint64(&rel.stats.DupAcked),
		Failures:     atomic.LoadUint64(&rel.stats.Failures),
	}
}

// Pending returns how many messages await acknowledgement.
func (rel *Reliable) Pending() int {
	n := 0
	for i := range rel.nodes {
		n += len(rel.nodes[i].pending)
	}
	return n
}

// Err returns the first retransmission-exhaustion error, if any (also
// surfaced through the failing node's Fatal and the machine run loops).
func (rel *Reliable) Err() error { return rel.err }

// seqFor draws the next sequence number for a source node: the node's
// local count striped by node id. Numbers are globally unique and
// nonzero, and — because each node draws from its own counter — the
// numbering is independent of the order nodes inject in a cycle.
func (rel *Reliable) seqFor(node int) int32 {
	rn := &rel.nodes[node]
	seq := rn.count*rel.nn + int32(node) + 1
	rn.count++
	return seq
}

// seqNode recovers the source node a sequence number was drawn by.
func (rel *Reliable) seqNode(seq int32) int { return int((seq - 1) % rel.nn) }

// onInject assigns a sequence number to every fresh application
// message and snapshots it for retransmission. Control traffic (acks)
// and already-sequenced retransmissions pass through untouched.
func (rel *Reliable) onInject(node int, m *network.Message, cycle int64) {
	if m.Ctl || m.Seq != 0 {
		return
	}
	m.Seq = rel.seqFor(node)
	p := &pendingMsg{
		src:   node,
		destX: m.DestX, destY: m.DestY, destZ: m.DestZ,
		pri:      m.Pri,
		words:    append([]word.Word(nil), m.Words...),
		deadline: cycle + rel.cfg.TimeoutCycles,
	}
	rn := &rel.nodes[node]
	if rn.pending == nil {
		rn.pending = make(map[int32]*pendingMsg)
	}
	rn.pending[m.Seq] = p
	atomic.AddUint64(&rel.stats.Tracked, 1)
}

// onDeliver acknowledges a tracked message's arrival: the receiving NI
// marks the sequence seen and injects a 2-word priority-1 ack back to
// the sender, where it dispatches rt.dack.
func (rel *Reliable) onDeliver(node int, m *network.Message, cycle int64) {
	if m.Ctl || m.Seq == 0 {
		return
	}
	rel.seen[m.Seq] = cycle
	if rel.niAlive(node) {
		rel.sendAck(node, int(m.Src), m.Seq)
	}
}

// niAlive reports whether node's network interface can generate acks:
// the NI shares the node's fate, so a frozen node stays silent until
// thawed (the sender retries) and a killed node never acks (the sender
// exhausts MaxRetries and surfaces the failure).
func (rel *Reliable) niAlive(node int) bool {
	n := rel.rt.M.Nodes[node]
	return !n.Killed() && !n.Frozen()
}

// filterDup suppresses retransmitted copies of already-delivered
// messages at the delivery port, re-acknowledging in case the earlier
// ack was lost.
func (rel *Reliable) filterDup(node int, m *network.Message, cycle int64) bool {
	if m.Ctl || m.Seq == 0 {
		return false
	}
	if _, dup := rel.seen[m.Seq]; !dup {
		return false
	}
	if rel.niAlive(node) {
		atomic.AddUint64(&rel.stats.DupAcked, 1)
		rel.sendAck(node, int(m.Src), m.Seq)
	}
	return true
}

// onDrop reacts to the network permanently discarding a worm (checksum
// failure, MaxReturns exhaustion): the retransmission deadline is
// pulled in so the next timeout scan resends without waiting out the
// full backoff. Lost acks are left to the sender's timeout.
func (rel *Reliable) onDrop(node int, m *network.Message, reason network.DropReason, cycle int64) {
	if m.Ctl || m.Seq == 0 {
		return
	}
	// A filtered duplicate means the original already arrived — the
	// ack is in flight or the receiver is frozen. Accelerating the
	// retransmission would spin the retry budget against a silent
	// receiver; leave the backoff schedule alone.
	if reason == network.DropFiltered {
		return
	}
	if p, ok := rel.nodes[rel.seqNode(m.Seq)].pending[m.Seq]; ok {
		p.deadline = cycle
	}
}

// sendAck injects the acknowledgement message. Acks are privileged NI
// traffic: they bypass the outbox capacity check (the hardware would
// reserve NI buffer space for them) but still traverse the mesh and
// consume handler cycles at the sender.
func (rel *Reliable) sendAck(from, to int, seq int32) {
	net := rel.rt.M.Net
	x, y, z := net.NodeCoords(to)
	ack := network.NewMessage()
	ack.DestX, ack.DestY, ack.DestZ = int8(x), int8(y), int8(z)
	ack.Pri, ack.Src, ack.Ctl = 1, int32(from), true
	ack.Words = append(ack.Words, word.MsgHeader(rel.rt.dack, 2), word.Int(seq))
	net.Inject(from, ack, 0)
	atomic.AddUint64(&rel.stats.AcksSent, 1)
}

// svcDack retires an acknowledgement at the sender: message word 1
// carries the sequence number. Runs on the acked node, touching only
// its own pending map.
func (rel *Reliable) svcDack(n *mdp.Node, ns *NodeState, f mdp.Fault) (int32, mdp.FaultAction) {
	q := n.Queues[1]
	if f.Level == mdp.LvlP0 {
		q = n.Queues[0]
	}
	seq := q.WordAt(1).Data()
	if _, ok := rel.nodes[n.ID].pending[seq]; ok {
		delete(rel.nodes[n.ID].pending, seq)
		atomic.AddUint64(&rel.stats.AcksReceived, 1)
	}
	return 2, mdp.ActAdvance
}

// tick is the machine cycle hook: every ScanInterval cycles it scans
// pending messages (in ascending sequence order, for determinism) and
// retransmits those whose deadline has passed.
func (rel *Reliable) tick(cycle int64) {
	if cycle%rel.cfg.ScanInterval != 0 {
		return
	}
	rel.pruneSeen(cycle)
	var due []int32
	for i := range rel.nodes {
		for seq, p := range rel.nodes[i].pending { //jm:maporder due set is sorted before any retransmit; iteration order cannot leak
			if p.deadline <= cycle {
				due = append(due, seq)
			}
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, seq := range due {
		rel.retransmit(seq, rel.nodes[rel.seqNode(seq)].pending[seq], cycle)
	}
}

// dupWindow is how long a delivered sequence number must stay in the
// duplicate filter: longer than the worst-case retransmission schedule
// (the backoff sum is below TimeoutCycles<<(MaxRetries+1)), so a copy
// of a pruned message can no longer be in flight.
func (rel *Reliable) dupWindow() int64 {
	return rel.cfg.TimeoutCycles << (uint(rel.cfg.MaxRetries) + 2)
}

// pruneSeen ages the duplicate filter. It runs only while messages are
// pending: with none pending, horizon declares tick a no-op and
// fast-path runs skip the scan entirely, so pruning then would let the
// filter's contents depend on the stepping mode.
func (rel *Reliable) pruneSeen(cycle int64) {
	if rel.Pending() == 0 {
		return
	}
	cutoff := cycle - rel.dupWindow()
	for seq, at := range rel.seen { //jm:maporder the delete set depends only on entry values; iteration order cannot leak
		if at < cutoff {
			delete(rel.seen, seq)
		}
	}
}

// DupFilterSize returns how many delivered sequence numbers the
// duplicate filter currently retains (for tests).
func (rel *Reliable) DupFilterSize() int { return len(rel.seen) }

// retransmit resends one pending message as a fresh, clean copy (the
// sequence number is preserved; injected corruption is not), backing
// off exponentially. Exhausting MaxRetries fails the sending node.
func (rel *Reliable) retransmit(seq int32, p *pendingMsg, cycle int64) {
	if p.attempts >= rel.cfg.MaxRetries {
		delete(rel.nodes[rel.seqNode(seq)].pending, seq)
		atomic.AddUint64(&rel.stats.Failures, 1)
		err := fmt.Errorf("rt: reliable delivery of seq %d from node %d failed after %d retransmissions",
			seq, p.src, p.attempts)
		if rel.err == nil {
			rel.err = err
		}
		rel.rt.M.Nodes[p.src].Fail(err)
		return
	}
	p.attempts++
	atomic.AddUint64(&rel.stats.Retries, 1)
	p.deadline = cycle + rel.cfg.TimeoutCycles<<p.attempts
	m := network.NewMessage()
	m.DestX, m.DestY, m.DestZ = p.destX, p.destY, p.destZ
	m.Pri, m.Src, m.Seq = p.pri, int32(p.src), seq
	m.Words = append(m.Words, p.words...)
	rel.rt.M.Net.Inject(p.src, m, 0)
}
