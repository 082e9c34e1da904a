// Package stats accumulates the measurements the paper reports: cycle
// attribution by function (Figure 6), per-thread-class counts (Table 4),
// and user/OS cost splits (Table 5).
//
// The real J-Machine lacked statistics-collection hardware — the paper's
// critique laments the missing cycle counter — so the authors instrumented
// applications with static basic-block evaluation and hand-placed dynamic
// counters. The simulator can do better: every cycle each node retires is
// attributed to exactly one category.
package stats

import (
	"cmp"
	"slices"
	"sort"
)

// Cat is a cycle category, matching Figure 6's breakdown.
type Cat uint8

const (
	// CatComp is useful computation (default for ordinary instructions).
	CatComp Cat = iota
	// CatComm covers SEND instructions and send-fault back-pressure
	// stalls.
	CatComm
	// CatSync covers message dispatch, SUSPEND, presence-tag faults and
	// the thread save/restore they trigger.
	CatSync
	// CatXlate covers ENTER/XLATE/PROBE and xlate-miss fault service.
	CatXlate
	// CatNNR covers node-number-register calculations: converting
	// linear node indices or virtual node ids to router addresses.
	// Code marks these regions explicitly via the RGN register.
	CatNNR
	// CatIdle is time with no runnable thread and no pending message.
	CatIdle

	NumCats
)

var catNames = [NumCats]string{"comp", "comm", "sync", "xlate", "nnr", "idle"}

// String returns the category's display name.
func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// HandlerStats counts one thread class (message handler entry point).
type HandlerStats struct {
	Invocations uint64
	Instrs      uint64
	MsgWords    uint64 // sum of invoking message lengths
}

// Node accumulates one node's counters.
//
// The per-thread-class table is a slice ordered by handler ip: a node
// runs a handful of classes, so a binary search is as cheap as a hash
// and the table costs its entries rather than a map's buckets.
// Checkpoints and digests walk it in order. cur indexes the class now
// executing (an index, not a pointer: the slice moves when it grows).
//
// Concurrency: Node is single-writer by construction — it is mutated
// only by its owning mdp.Node's Step, which the parallel engine runs
// on exactly one shard goroutine per cycle (and the sequential loop on
// one goroutine, trivially). Cross-node aggregation (stats.Machine,
// the watchdog scan) happens on the coordinator between cycles, after
// the node phase's barrier, so no merge step is needed.
type Node struct {
	Cycles  [NumCats]int64
	Instrs  uint64
	Threads uint64 // messages dispatched

	SendFaultCycles uint64 // cycles stalled on injection back-pressure
	SendFaults      uint64 // distinct send-fault events
	MsgsSent        [2]uint64
	WordsSent       [2]uint64
	XlateFaults     uint64
	CfutFaults      uint64
	OverflowFaults  uint64

	classes []class // ascending ip
	cur     int     // index into classes of the class now executing, or -1
}

// class is one thread class's row of a node's table.
type class struct {
	ip int32
	HandlerStats
}

// NewNode returns an empty per-node accumulator.
func NewNode() *Node {
	return &Node{cur: -1}
}

// Add attributes one cycle to category c.
func (n *Node) Add(c Cat) { n.Cycles[c]++ }

// AddN attributes k cycles to category c.
func (n *Node) AddN(c Cat, k int64) { n.Cycles[c] += k }

// BeginThread records a dispatch of the handler at code address ip
// invoked by a message of msgWords words, and directs subsequent
// instruction counts to that class. Background threads use ip = -1.
func (n *Node) BeginThread(ip int32, msgWords int) {
	n.Threads++
	n.SetCurrent(ip)
	h := &n.classes[n.cur].HandlerStats
	h.Invocations++
	h.MsgWords += uint64(msgWords)
}

// SetCurrent redirects instruction accounting to the class at ip without
// counting an invocation (used when resuming a suspended thread).
func (n *Node) SetCurrent(ip int32) {
	if n.cur >= 0 && n.classes[n.cur].ip == ip {
		return
	}
	i, ok := n.find(ip)
	if !ok {
		// The new class becomes current, so no index needs re-basing.
		n.classes = slices.Insert(n.classes, i, class{ip: ip})
	}
	n.cur = i
}

// find returns the index of ip's class, or where it would be inserted.
func (n *Node) find(ip int32) (int, bool) {
	return slices.BinarySearchFunc(n.classes, ip, func(c class, ip int32) int {
		return cmp.Compare(c.ip, ip)
	})
}

// CountInstr attributes one retired instruction.
func (n *Node) CountInstr() {
	n.Instrs++
	if n.cur >= 0 {
		n.classes[n.cur].Instrs++
	}
}

// CountInstrN attributes k retired instructions at once. Valid only
// when the thread class cannot have changed across them (the compiled
// tier's fusion loop: dispatch and suspend both end a window).
func (n *Node) CountInstrN(k uint64) {
	n.Instrs += k
	if n.cur >= 0 {
		n.classes[n.cur].Instrs += k
	}
}

// Handler returns the accumulated stats for a thread class, or nil.
// The pointer is valid until the node next meets a new class.
func (n *Node) Handler(ip int32) *HandlerStats {
	if i, ok := n.find(ip); ok {
		return &n.classes[i].HandlerStats
	}
	return nil
}

// TotalCycles returns the node's attributed cycle count.
func (n *Node) TotalCycles() int64 {
	var t int64
	for _, c := range n.Cycles {
		t += c
	}
	return t
}

// Machine aggregates per-node statistics.
type Machine struct {
	Nodes []*Node
}

// NewMachine returns accumulators for n nodes.
func NewMachine(n int) *Machine {
	m := &Machine{Nodes: make([]*Node, n)}
	for i := range m.Nodes {
		m.Nodes[i] = NewNode()
	}
	return m
}

// Cycles sums category c across nodes.
func (m *Machine) Cycles(c Cat) int64 {
	var t int64
	for _, n := range m.Nodes {
		t += n.Cycles[c]
	}
	return t
}

// Breakdown returns each category's share of total node-cycles, in
// category order (the Figure 6 bars).
func (m *Machine) Breakdown() [NumCats]float64 {
	var per [NumCats]int64
	var total int64
	for _, n := range m.Nodes {
		for c, v := range n.Cycles {
			per[c] += v
			total += v
		}
	}
	var out [NumCats]float64
	if total == 0 {
		return out
	}
	for c := range per {
		out[c] = float64(per[c]) / float64(total)
	}
	return out
}

// Instrs sums retired instructions across nodes.
func (m *Machine) Instrs() uint64 {
	var t uint64
	for _, n := range m.Nodes {
		t += n.Instrs
	}
	return t
}

// Threads sums dispatched threads across nodes.
func (m *Machine) Threads() uint64 {
	var t uint64
	for _, n := range m.Nodes {
		t += n.Threads
	}
	return t
}

// SendFaults sums distinct send-fault events across nodes.
func (m *Machine) SendFaults() uint64 {
	var t uint64
	for _, n := range m.Nodes {
		t += n.SendFaults
	}
	return t
}

// XlateFaults sums xlate-miss faults across nodes.
func (m *Machine) XlateFaults() uint64 {
	var t uint64
	for _, n := range m.Nodes {
		t += n.XlateFaults
	}
	return t
}

// HandlerTotal aggregates a thread class across all nodes.
func (m *Machine) HandlerTotal(ip int32) HandlerStats {
	var h HandlerStats
	for _, n := range m.Nodes {
		if s := n.Handler(ip); s != nil {
			h.Invocations += s.Invocations
			h.Instrs += s.Instrs
			h.MsgWords += s.MsgWords
		}
	}
	return h
}

// SendFaultSkew returns the ratio of the maximum per-node send-fault
// count to the mean — the paper verified certain nodes fault up to two
// orders of magnitude more than average during radix sort.
func (m *Machine) SendFaultSkew() float64 {
	var total, max uint64
	for _, n := range m.Nodes {
		total += n.SendFaults
		if n.SendFaults > max {
			max = n.SendFaults
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.Nodes))
	return float64(max) / mean
}

// IdleFraction returns idle cycles over total cycles.
func (m *Machine) IdleFraction() float64 {
	return m.Breakdown()[CatIdle]
}

// TopHandlers returns the ips of the k busiest thread classes by
// invocation count, machine-wide, busiest first.
func (m *Machine) TopHandlers(k int) []int32 {
	agg := make(map[int32]uint64)
	for _, n := range m.Nodes {
		for _, c := range n.classes {
			agg[c.ip] += c.Invocations
		}
	}
	ips := make([]int32, 0, len(agg))
	for ip := range agg {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool {
		if agg[ips[i]] != agg[ips[j]] {
			return agg[ips[i]] > agg[ips[j]]
		}
		return ips[i] < ips[j]
	})
	if len(ips) > k {
		ips = ips[:k]
	}
	return ips
}
