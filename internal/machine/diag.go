// Diagnostic capture for watchdog trips: when the machine stops making
// progress the run loops snapshot where every worm, queue, and node
// stands so the wedge can be diagnosed post-mortem instead of staring
// at a cycle count.
package machine

import (
	"fmt"
	"strings"

	"jmachine/internal/mdp"
)

// RouterDiag describes one router holding stalled traffic.
type RouterDiag struct {
	Node     int
	Occupied int    // in-flight phits buffered in the router
	Outbox   [2]int // injection outbox depth per priority
}

// NodeDiag describes one node that is suspect at a watchdog trip:
// frozen, killed, fatally faulted, still busy, or holding undelivered
// queue traffic.
type NodeDiag struct {
	ID       int
	Level    int // executing level (mdp.LvlP0/LvlP1/LvlBG)
	IP       int32
	Running  bool
	Halted   bool
	Frozen   bool
	Killed   bool
	Fatal    error
	QUsed    [2]int // hardware queue fill, words
	QMsgs    [2]int // complete messages buffered
	SoftQLen int    // messages relocated to the software overflow queue
}

// ParkDiag describes one node parked by the event-horizon stepper.
type ParkDiag struct {
	Node     int
	WakeAt   int64 // next self-scheduled event (NoEvent = waits on traffic)
	NeedWake bool  // a message arrived for it but the wake is not yet consumed
}

// Diagnostic is the machine state dump attached to ErrNoProgress.
type Diagnostic struct {
	Cycle   int64
	Nodes   int
	Routers []RouterDiag // routers with in-flight or outbox traffic
	Suspect []NodeDiag
	// Parking state of the event-horizon stepper: a wedge where every
	// node is parked with WakeAt=NoEvent and no hook has a pending
	// horizon is a lost-wakeup, not a livelock.
	NParked         int
	Parked          []ParkDiag // parked nodes (capped)
	ParkedTruncated int        // parked nodes omitted from the dump
	// Horizons holds each registered cycle hook's declared next-effect
	// cycle, evaluated at Cycle (NoEvent = the hook is permanently
	// quiescent until other state changes).
	Horizons []int64
	// AllQuiet is set when no node matched the suspect heuristics — the
	// wedge is every node suspended awaiting a message that will never
	// arrive (e.g. dropped by checksum verification). Suspect then holds
	// a capped dump of every node so the report is never empty.
	AllQuiet  bool
	Truncated int // nodes omitted from the AllQuiet dump
}

// Diagnose snapshots the wedge-relevant machine state. It is cheap
// enough to call ad hoc but is intended for the watchdog path, not the
// cycle loop.
func (m *Machine) Diagnose() *Diagnostic {
	m.CatchUp() // catch parked nodes up so the dump shows reference-exact state
	d := &Diagnostic{Cycle: m.cycle, Nodes: len(m.Nodes)}
	for i := range m.Nodes {
		occ := m.Net.RouterOcc(i)
		ob := [2]int{m.Net.OutboxDepth(i, 0), m.Net.OutboxDepth(i, 1)}
		if occ > 0 || ob[0] > 0 || ob[1] > 0 {
			d.Routers = append(d.Routers, RouterDiag{Node: i, Occupied: occ, Outbox: ob})
		}
	}
	for _, n := range m.Nodes {
		if !suspectNode(n) {
			continue
		}
		d.Suspect = append(d.Suspect, nodeDiag(n))
	}
	const maxParked = 16
	for i := range m.parked {
		if !m.parked[i] {
			continue
		}
		d.NParked++
		if len(d.Parked) < maxParked {
			d.Parked = append(d.Parked, ParkDiag{Node: i, WakeAt: m.wakeAt[i], NeedWake: m.needWake[i]})
		}
	}
	d.ParkedTruncated = d.NParked - len(d.Parked)
	for _, h := range m.horizons {
		d.Horizons = append(d.Horizons, h(m.cycle))
	}
	if len(d.Suspect) == 0 {
		// Every node looks idle: the machine is suspended waiting on
		// traffic that will never arrive. Dump everything (capped) so
		// the report still shows each node's resting place.
		d.AllQuiet = true
		const maxDump = 16
		for _, n := range m.Nodes {
			if len(d.Suspect) >= maxDump {
				d.Truncated = len(m.Nodes) - maxDump
				break
			}
			d.Suspect = append(d.Suspect, nodeDiag(n))
		}
	}
	return d
}

// nodeDiag snapshots one node.
func nodeDiag(n *mdp.Node) NodeDiag {
	nd := NodeDiag{
		ID:       n.ID,
		Level:    n.Level(),
		IP:       n.Ctx(n.Level()).IP,
		Running:  n.Ctx(n.Level()).Running,
		Halted:   n.Halted(),
		Frozen:   n.Frozen(),
		Killed:   n.Killed(),
		Fatal:    n.Fatal(),
		SoftQLen: n.SoftQueueLen(),
	}
	for pri := 0; pri < 2; pri++ {
		nd.QUsed[pri] = n.Queues[pri].Used()
		nd.QMsgs[pri] = n.Queues[pri].Messages()
	}
	return nd
}

// suspectNode reports whether a node belongs in the wedge dump: it is
// in an injected-fault state, crashed, or has work it is not retiring.
func suspectNode(n *mdp.Node) bool {
	return n.Frozen() || n.Killed() || n.Fatal() != nil ||
		(n.Busy() && !n.Halted())
}

// String renders the dump as an indented multi-line report.
func (d *Diagnostic) String() string {
	var sb strings.Builder
	if d.AllQuiet {
		fmt.Fprintf(&sb, "diagnostic at cycle %d (%d nodes): %d router(s) with stalled traffic; "+
			"all nodes idle — suspended awaiting traffic that never arrived\n",
			d.Cycle, d.Nodes, len(d.Routers))
	} else {
		fmt.Fprintf(&sb, "diagnostic at cycle %d (%d nodes): %d router(s) with stalled traffic, %d suspect node(s)\n",
			d.Cycle, d.Nodes, len(d.Routers), len(d.Suspect))
	}
	for _, r := range d.Routers {
		fmt.Fprintf(&sb, "  router n%03d: %d phit(s) in flight, outbox p0=%d p1=%d\n",
			r.Node, r.Occupied, r.Outbox[0], r.Outbox[1])
	}
	for _, n := range d.Suspect {
		var flags []string
		if n.Frozen {
			flags = append(flags, "frozen")
		}
		if n.Killed {
			flags = append(flags, "killed")
		}
		if n.Halted {
			flags = append(flags, "halted")
		}
		if n.Running {
			flags = append(flags, "running")
		} else {
			flags = append(flags, "idle")
		}
		if n.Fatal != nil {
			flags = append(flags, "fatal: "+n.Fatal.Error())
		}
		fmt.Fprintf(&sb, "  node n%03d: level=%d ip=%d [%s] q0=%dw/%dm q1=%dw/%dm softq=%d\n",
			n.ID, n.Level, n.IP, strings.Join(flags, ","),
			n.QUsed[0], n.QMsgs[0], n.QUsed[1], n.QMsgs[1], n.SoftQLen)
	}
	if d.Truncated > 0 {
		fmt.Fprintf(&sb, "  (%d more nodes omitted)\n", d.Truncated)
	}
	if d.NParked > 0 {
		fmt.Fprintf(&sb, "  parked: %d node(s)\n", d.NParked)
		for _, p := range d.Parked {
			wake := "awaiting traffic"
			if p.WakeAt != NoEvent {
				wake = fmt.Sprintf("wake at cycle %d", p.WakeAt)
			}
			if p.NeedWake {
				wake += ", wake pending"
			}
			fmt.Fprintf(&sb, "    node n%03d: %s\n", p.Node, wake)
		}
		if d.ParkedTruncated > 0 {
			fmt.Fprintf(&sb, "    (%d more parked nodes omitted)\n", d.ParkedTruncated)
		}
	}
	if len(d.Horizons) > 0 {
		var hs []string
		for _, h := range d.Horizons {
			if h == NoEvent {
				hs = append(hs, "none")
			} else {
				hs = append(hs, fmt.Sprintf("%d", h))
			}
		}
		fmt.Fprintf(&sb, "  hook horizons: %s\n", strings.Join(hs, ", "))
	}
	return strings.TrimRight(sb.String(), "\n")
}
