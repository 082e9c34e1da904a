// Package obs is the observability layer: it streams per-node trace
// events and per-cycle counter samples into Chrome/Perfetto trace-event
// JSON, and periodic machine-wide metric snapshots into JSON lines.
//
// The design constraint that shapes everything here is determinism:
// attaching an observer must leave machine.StateDigest() byte-identical
// to an unobserved run, under both the sequential loop and the engine
// at any shard count. The recorder therefore only *reads*
// machine state, stages per-node events behind the digest-exempt
// mdp.Node.Watch tap, and drains everything on the coordinating
// goroutine between cycles (see obs.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"jmachine/internal/mdp"
	"jmachine/internal/trace"
)

// Thread-track ids within each node's process group.
const (
	tidMDP = 0 // processor spans and instants
	tidNet = 1 // network delivery/drop instants
)

// pfEvent is one Chrome trace-event object. Fields follow the
// trace-event format that ui.perfetto.dev and chrome://tracing load.
type pfEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// PerfettoWriter streams trace events as they arrive, holding no event
// backlog: each call marshals one object and appends it to the JSON
// array. The output is valid JSON after every completed call — Close
// only terminates the array, so even a truncated file is one missing
// brace away from loadable.
//
// Timestamps are simulation cycles (the viewer's "us" unit reads as
// cycles). One process per node; tid 0 carries MDP handler spans, tid 1
// network delivery instants, and counter tracks hang off the process.
type PerfettoWriter struct {
	w      io.Writer
	err    error
	n      int             // events emitted, for the trailing comma and reporting
	open   map[int32]int64 // node → cycle of the currently open span
	seen   map[int32]bool  // nodes with metadata already emitted
	nameFn func(ip int32) string
	lastTs int64
}

// NewPerfetto starts a trace-event stream on w.
func NewPerfetto(w io.Writer) *PerfettoWriter {
	p := &PerfettoWriter{
		w:    w,
		open: make(map[int32]int64),
		seen: make(map[int32]bool),
	}
	p.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	return p
}

// SetHandlerNames installs a resolver from handler entry IP to a
// human-readable span name (typically built from asm.Program labels).
func (p *PerfettoWriter) SetHandlerNames(fn func(ip int32) string) { p.nameFn = fn }

// Err returns the first write or encoding error, if any.
func (p *PerfettoWriter) Err() error { return p.err }

// Count returns the number of trace-event objects emitted so far.
func (p *PerfettoWriter) Count() int { return p.n }

func (p *PerfettoWriter) raw(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s)
}

func (p *PerfettoWriter) emit(e pfEvent) {
	if p.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		p.err = err
		return
	}
	if p.n > 0 {
		p.raw(",\n")
	}
	p.raw(string(b))
	p.n++
}

// meta emits the process/thread naming metadata for a node the first
// time it appears.
func (p *PerfettoWriter) metaFor(node int32) {
	if p.seen[node] {
		return
	}
	p.seen[node] = true
	p.emit(pfEvent{Name: "process_name", Ph: "M", Pid: node, Tid: tidMDP,
		Args: map[string]any{"name": fmt.Sprintf("node %03d", node)}})
	p.emit(pfEvent{Name: "thread_name", Ph: "M", Pid: node, Tid: tidMDP,
		Args: map[string]any{"name": "mdp"}})
	p.emit(pfEvent{Name: "thread_name", Ph: "M", Pid: node, Tid: tidNet,
		Args: map[string]any{"name": "net"}})
}

func (p *PerfettoWriter) spanName(ip int32) string {
	if p.nameFn != nil {
		if s := p.nameFn(ip); s != "" {
			return s
		}
	}
	return fmt.Sprintf("h@%d", ip)
}

// closeSpan ends the open span on a node's mdp track, if any. Spans are
// closed at ts, clamped so a malformed event sequence (fuzzing, ring
// wrap) cannot end a span before it began.
func (p *PerfettoWriter) closeSpan(node int32, ts int64) {
	begin, ok := p.open[node]
	if !ok {
		return
	}
	delete(p.open, node)
	if ts < begin {
		ts = begin
	}
	p.emit(pfEvent{Ph: "E", Ts: ts, Pid: node, Tid: tidMDP})
}

// Event translates one node trace event into timeline objects:
// Dispatch/Resume open handler spans, Suspend/Halt close them, and
// Send/Fault/Mark/Halt drop instants on the track. Any event sequence
// is accepted — unbalanced begins/ends are repaired, never fatal.
func (p *PerfettoWriter) Event(e trace.Event) {
	p.metaFor(e.Node)
	if e.Cycle > p.lastTs {
		p.lastTs = e.Cycle
	}
	switch e.Kind {
	case trace.Dispatch:
		p.closeSpan(e.Node, e.Cycle)
		p.open[e.Node] = e.Cycle
		p.emit(pfEvent{Name: p.spanName(e.A), Ph: "B", Ts: e.Cycle, Pid: e.Node, Tid: tidMDP,
			Args: map[string]any{"msg_words": e.B}})
	case trace.Resume:
		p.closeSpan(e.Node, e.Cycle)
		p.open[e.Node] = e.Cycle
		p.emit(pfEvent{Name: "resume " + p.spanName(e.A), Ph: "B", Ts: e.Cycle, Pid: e.Node, Tid: tidMDP,
			Args: map[string]any{"level": e.B}})
	case trace.Suspend:
		p.closeSpan(e.Node, e.Cycle)
	case trace.Halt:
		p.closeSpan(e.Node, e.Cycle)
		p.instant(e.Cycle, e.Node, tidMDP, "halt", nil)
	case trace.Send:
		p.instant(e.Cycle, e.Node, tidMDP, fmt.Sprintf("send→n%03d", e.A),
			map[string]any{"words": e.B})
	case trace.Fault:
		p.instant(e.Cycle, e.Node, tidMDP, "fault "+mdp.FaultKind(uint8(e.A)).String(),
			map[string]any{"ip": e.B})
	case trace.Mark:
		p.instant(e.Cycle, e.Node, tidMDP, fmt.Sprintf("mark(%d,%d)", e.A, e.B), nil)
	default:
		p.instant(e.Cycle, e.Node, tidMDP, e.Kind.String(), nil)
	}
}

func (p *PerfettoWriter) instant(ts int64, pid, tid int32, name string, args map[string]any) {
	p.emit(pfEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t", Args: args})
}

// Instant drops a thread-scoped instant on an arbitrary track; the
// recorder uses it for network delivery and drop events.
func (p *PerfettoWriter) Instant(ts int64, pid, tid int32, name string, args map[string]any) {
	p.metaFor(pid)
	if ts > p.lastTs {
		p.lastTs = ts
	}
	p.instant(ts, pid, tid, name, args)
}

// Counter emits one sample on a counter track. Multiple series render
// stacked when args carries several values.
func (p *PerfettoWriter) Counter(ts int64, pid int32, name string, series map[string]any) {
	p.metaFor(pid)
	if ts > p.lastTs {
		p.lastTs = ts
	}
	p.emit(pfEvent{Name: name, Ph: "C", Ts: ts, Pid: pid, Tid: tidMDP, Args: series})
}

// Close ends any spans still open (at the latest timestamp observed)
// and terminates the JSON document. The writer must not be used after.
// The emitted JSON is golden-tested byte-for-byte, so everything below
// must stay order-deterministic.
//
//jm:trace-root timeline bytes are part of the deterministic trace output
func (p *PerfettoWriter) Close() error {
	// Deterministic order: ascending node id.
	for len(p.open) > 0 {
		var minNode int32
		first := true
		for n := range p.open { //jm:maporder min-select loop: the minimum is order-independent
			if first || n < minNode {
				minNode, first = n, false
			}
		}
		p.closeSpan(minNode, p.lastTs)
	}
	p.raw("]}\n")
	return p.err
}
