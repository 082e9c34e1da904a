// Package chaos is a deterministic, seeded fault injector for the
// simulated J-Machine. A Campaign schedules faults — link stalls,
// in-flight message corruption, node freezes and kills, queue-capacity
// squeezes — at exact cycles; attached to a machine, the Injector
// applies them through the network's and nodes' fault hooks. The same
// campaign against the same machine configuration reproduces the same
// run byte-for-byte, so a failure found by a random campaign is a
// regression test by construction.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"jmachine/internal/machine"
	"jmachine/internal/network"
)

// Kind classifies a scheduled fault.
type Kind uint8

const (
	// LinkStall blocks one router output port (Port; network.PortLocal
	// stalls delivery and injection) for Duration cycles.
	LinkStall Kind = iota
	// CorruptMsg arms a transient bit flip at a node's network
	// interface: the next message the node injects carries Word/Mask
	// in-flight corruption.
	CorruptMsg
	// NodeFreeze stops a node's processor for Duration cycles; its
	// router and queues stay alive (clock or thermal stall).
	NodeFreeze
	// NodeKill stops a node's processor permanently.
	NodeKill
	// QueueSqueeze limits a delivery queue (priority Pri) to CapWords
	// words for Duration cycles (partial buffer failure).
	QueueSqueeze
)

var kindNames = [...]string{"stall", "corrupt", "freeze", "kill", "squeeze"}

// String names the kind (the campaign text format's verb).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one scheduled fault.
type Event struct {
	Kind     Kind
	Cycle    int64 // machine cycle at which the fault begins
	Node     int
	Port     int    // LinkStall: router output port (0-6)
	Duration int64  // LinkStall/NodeFreeze/QueueSqueeze: cycles active
	Word     int    // CorruptMsg: payload word index to flip
	Mask     uint32 // CorruptMsg: XOR mask (0 means the default single-bit flip)
	CapWords int    // QueueSqueeze: squeezed capacity in words
	Pri      int    // QueueSqueeze: which priority queue
}

// DefaultMask is the corruption applied when an Event leaves Mask zero:
// a single-bit flip in the data field.
const DefaultMask = 0x4

// String renders the event in the campaign text format.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d:node=%d", e.Kind, e.Cycle, e.Node)
	switch e.Kind {
	case LinkStall:
		fmt.Fprintf(&b, ",port=%d,dur=%d", e.Port, e.Duration)
	case CorruptMsg:
		fmt.Fprintf(&b, ",word=%d", e.Word)
		if e.Mask != 0 {
			fmt.Fprintf(&b, ",mask=%d", e.Mask)
		}
	case NodeFreeze:
		fmt.Fprintf(&b, ",dur=%d", e.Duration)
	case QueueSqueeze:
		fmt.Fprintf(&b, ",cap=%d,dur=%d", e.CapWords, e.Duration)
		if e.Pri != 0 {
			fmt.Fprintf(&b, ",pri=%d", e.Pri)
		}
	}
	return b.String()
}

// Campaign is a named, seeded schedule of faults.
type Campaign struct {
	Name   string
	Seed   uint64 // generator seed, recorded for reproduction
	Events []Event
}

// splitmix64 is the deterministic generator behind RandomCampaign: tiny,
// well-mixed, and identical on every platform.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}

// RandomCampaign generates n faults over the first maxCycle cycles of a
// nodes-node machine. The same (seed, nodes, maxCycle, n) always yields
// the same campaign.
func RandomCampaign(seed uint64, nodes int, maxCycle int64, n int) Campaign {
	g := splitmix64(seed)
	c := Campaign{Name: fmt.Sprintf("random-%d", seed), Seed: seed}
	for i := 0; i < n; i++ {
		e := Event{
			Cycle: 1 + int64(g.next()%uint64(maxCycle)),
			Node:  g.intn(nodes),
		}
		switch g.intn(5) {
		case 0:
			e.Kind = LinkStall
			e.Port = g.intn(network.NumPorts)
			e.Duration = 16 + int64(g.intn(512))
		case 1:
			e.Kind = CorruptMsg
			e.Word = g.intn(4)
			e.Mask = uint32(1) << g.intn(30)
		case 2:
			e.Kind = NodeFreeze
			e.Duration = 64 + int64(g.intn(4096))
		case 3:
			// Kills are rare in random campaigns: a dead node usually
			// makes completion impossible, which is a different study
			// than degradation under transient faults. Downgrade to a
			// long freeze.
			e.Kind = NodeFreeze
			e.Duration = 4096 + int64(g.intn(8192))
		case 4:
			e.Kind = QueueSqueeze
			e.CapWords = 8 + g.intn(56)
			e.Duration = 256 + int64(g.intn(4096))
			e.Pri = g.intn(2)
		}
		c.Events = append(c.Events, e)
	}
	sortEvents(c.Events)
	return c
}

// sortEvents orders a schedule by cycle, breaking ties by node then
// kind, so application order is deterministic regardless of input
// order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Cycle != evs[j].Cycle {
			return evs[i].Cycle < evs[j].Cycle
		}
		if evs[i].Node != evs[j].Node {
			return evs[i].Node < evs[j].Node
		}
		return evs[i].Kind < evs[j].Kind
	})
}

// activeStall is one in-force link stall.
type activeStall struct {
	node, port int
	until      int64 // first cycle the link runs again
}

// expiry is a scheduled fault end: a thaw or a squeeze restore.
type expiry struct {
	cycle int64
	node  int
	pri   int // QueueSqueeze only
	kind  Kind
}

// Injector applies a campaign to a machine.
type Injector struct {
	m        *machine.Machine
	campaign Campaign
	events   []Event // sorted copy
	next     int     // index of the next unapplied event

	stalls   []activeStall
	expiries []expiry
	// armed holds each node's queued corruption, FIFO, indexed by node
	// id. A slice rather than a map: under the parallel engine each
	// shard consumes its own nodes' entries concurrently during the
	// node phase, which is safe for disjoint slice elements but would
	// race on a shared map header. Arming happens in tick, on the
	// coordinator, before the phases start.
	armed [][]Event

	// Applied counters, by kind.
	applied  [5]uint64
	corrupts uint64 // corruptions actually consumed by an injection (atomic)
}

// Attach installs the campaign's hooks on a machine. It must be called
// before the run starts; events whose cycle has already passed are
// skipped. The injector claims the network's stall hook (SetStallFn).
func Attach(m *machine.Machine, c Campaign) *Injector {
	inj := &Injector{
		m:        m,
		campaign: c,
		events:   append([]Event(nil), c.Events...),
		armed:    make([][]Event, len(m.Nodes)),
	}
	sortEvents(inj.events)
	m.AddCycleHook(inj.tick, inj.horizon) //jm:horizon next scheduled campaign event bounds tick's next effect
	m.Net.SetStallFn(inj.stall)
	m.Net.AddInjectFn(inj.onInject)
	return inj
}

// horizon declares tick's event horizon to the machine's fast path:
// the earliest cycle at which a scheduled fault fires or an active
// fault expires. Link-stall pruning is excluded deliberately — it is
// unobservable garbage collection (stall consults s.until itself), and
// the stall hook is only reachable while the network is stepping,
// which the machine never skips. Always > now between cycles: tick has
// already applied everything due at the current cycle.
func (inj *Injector) horizon(now int64) int64 {
	t := machine.NoEvent
	if inj.next < len(inj.events) {
		if c := inj.events[inj.next].Cycle; c < t {
			t = c
		}
	}
	for _, ex := range inj.expiries {
		if ex.cycle < t {
			t = ex.cycle
		}
	}
	return t
}

// tick applies events scheduled at or before this cycle and expires
// finished faults.
func (inj *Injector) tick(cycle int64) {
	for inj.next < len(inj.events) && inj.events[inj.next].Cycle <= cycle {
		inj.apply(inj.events[inj.next], cycle)
		inj.next++
	}
	if len(inj.stalls) > 0 {
		kept := inj.stalls[:0]
		for _, s := range inj.stalls {
			if cycle < s.until {
				kept = append(kept, s)
			}
		}
		inj.stalls = kept
	}
	if len(inj.expiries) == 0 {
		return
	}
	kept := inj.expiries[:0]
	for _, ex := range inj.expiries {
		if ex.cycle > cycle {
			kept = append(kept, ex)
			continue
		}
		switch ex.kind {
		case NodeFreeze:
			inj.m.Nodes[ex.node].SetFrozen(false)
		case QueueSqueeze:
			inj.m.Nodes[ex.node].Queues[ex.pri].SetLimit(0)
		}
	}
	inj.expiries = kept
}

// apply puts one event into force.
func (inj *Injector) apply(e Event, cycle int64) {
	if e.Node < 0 || e.Node >= len(inj.m.Nodes) {
		return
	}
	inj.applied[e.Kind]++
	switch e.Kind {
	case LinkStall:
		inj.stalls = append(inj.stalls, activeStall{
			node: e.Node, port: e.Port, until: cycle + e.Duration,
		})
	case CorruptMsg:
		inj.armed[e.Node] = append(inj.armed[e.Node], e)
	case NodeFreeze:
		inj.m.Nodes[e.Node].SetFrozen(true)
		inj.expiries = append(inj.expiries, expiry{
			cycle: cycle + e.Duration, node: e.Node, kind: NodeFreeze,
		})
	case NodeKill:
		inj.m.Nodes[e.Node].Kill()
	case QueueSqueeze:
		pri := e.Pri & 1
		inj.m.Nodes[e.Node].Queues[pri].SetLimit(e.CapWords)
		inj.expiries = append(inj.expiries, expiry{
			cycle: cycle + e.Duration, node: e.Node, pri: pri, kind: QueueSqueeze,
		})
	}
}

// stall is the network's link-fault oracle.
func (inj *Injector) stall(node, port int, cycle int64) bool {
	for i := range inj.stalls {
		s := &inj.stalls[i]
		if s.node == node && s.port == port && cycle < s.until {
			return true
		}
	}
	return false
}

// onInject consumes armed corruption: the node's next injected message
// (control traffic excluded) carries the scheduled bit flip.
func (inj *Injector) onInject(node int, m *network.Message, cycle int64) {
	if node < 0 || node >= len(inj.armed) {
		return
	}
	q := inj.armed[node]
	if len(q) == 0 || m.Ctl {
		return
	}
	e := q[0]
	inj.armed[node] = q[1:]
	mask := e.Mask
	if mask == 0 {
		mask = DefaultMask
	}
	w := e.Word
	if w >= len(m.Words) {
		w = len(m.Words) - 1
	}
	if w < 0 {
		w = 0
	}
	m.CorruptWord = int32(w)
	m.CorruptMask = mask
	atomic.AddUint64(&inj.corrupts, 1)
}

// ArmedRemaining returns corruptions armed but not yet consumed (the
// target node never sent again).
func (inj *Injector) ArmedRemaining() int {
	n := 0
	for _, q := range inj.armed {
		n += len(q)
	}
	return n
}

// Report renders a deterministic one-line-per-kind summary.
func (inj *Injector) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q seed=%d events=%d applied=%d\n",
		inj.campaign.Name, inj.campaign.Seed, len(inj.events), inj.next)
	for k := LinkStall; k <= QueueSqueeze; k++ {
		if inj.applied[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %d\n", k, inj.applied[k])
	}
	fmt.Fprintf(&b, "  corruptions consumed=%d armed-remaining=%d\n",
		inj.corrupts, inj.ArmedRemaining())
	return b.String()
}
