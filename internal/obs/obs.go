package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"jmachine/internal/machine"
	"jmachine/internal/network"
	"jmachine/internal/stats"
	"jmachine/internal/trace"
)

// Config selects what the recorder captures and where it streams.
// Either sink may be nil; with both nil Attach is a no-op that returns
// a nil Recorder (itself safe to Close).
type Config struct {
	// Perfetto receives the Chrome trace-event JSON timeline.
	Perfetto io.Writer
	// Metrics receives one Snapshot per line (JSONL).
	Metrics io.Writer

	// SampleEvery is the period, in cycles, of per-node counter samples
	// on the Perfetto timeline (queue depths, router occupancy, cycle
	// attribution). 0 defaults to 64; negative disables sampling.
	SampleEvery int
	// MetricsEvery is the period of machine-wide snapshots on the
	// Metrics sink. 0 defaults to SampleEvery's resolved value.
	MetricsEvery int

	// PerLink adds a counter track per mesh input link (seven ports per
	// node) — verbose, but it is the per-channel occupancy view.
	PerLink bool

	// HandlerName, when non-nil, names handler spans from their entry
	// IP (typically from asm.Program labels).
	HandlerName func(ip int32) string
}

// flowEvent is a network delivery or drop, captured by value at hook
// time: Message objects are reused on retransmission, so no pointer is
// retained.
type flowEvent struct {
	cycle  int64
	node   int32
	src    int32
	pri    int8
	words  int16
	drop   bool
	reason network.DropReason
}

// Recorder taps one machine. Its lifecycle is Attach → (machine runs) →
// Close; Close drains staged events, ends the timeline, and detaches
// the node taps.
//
// Determinism: the recorder never mutates machine state. Per-node
// events are staged by the digest-exempt mdp.Node.Watch tap into a slot
// owned by that node's stepping goroutine (exactly one writer per cycle
// under both engines); network flows arrive via the deliver/drop hooks,
// which fire from the network phase on the coordinator in router order.
// The cycle hook then drains everything on the coordinating goroutine
// at the start of the next cycle, in an order — samples, then ascending
// node id, then flows in firing order — that
// depends only on the simulation, not on the shard count. The exported
// timeline is therefore byte-identical across engines and shard counts,
// and machine.StateDigest() is byte-identical with the recorder on or
// off.
type Recorder struct {
	m   *machine.Machine
	cfg Config

	pw   *PerfettoWriter
	menc *json.Encoder

	perNode [][]trace.Event // staged node events; slot i written only by node i's stepper
	flows   []flowEvent     // staged network events; written only on the coordinator

	lastSampled int64 // most recent sampled cycle, -1 before any
	lastSnap    int64
	events      uint64 // node events exported
	netEvents   uint64
	samples     uint64
	snaps       uint64
	closed      bool
	err         error
}

var linkNames = [network.NumPorts]string{"xp", "xm", "yp", "ym", "zp", "zm", "local"}

// HandlerNames builds a span-name resolver from assembler labels
// (asm.Program.Labels). When several labels share an address the
// lexicographically smallest wins, keeping the timeline deterministic.
func HandlerNames(labels map[string]int32) func(ip int32) string {
	byIP := make(map[int32]string, len(labels))
	for name, ip := range labels {
		if cur, ok := byIP[ip]; !ok || name < cur {
			byIP[ip] = name
		}
	}
	return func(ip int32) string { return byIP[ip] }
}

// Attach installs the recorder's taps on m. At most one recorder may be
// attached to a machine at a time (a second Attach displaces the
// first's node taps). Returns nil when cfg has no sink.
func Attach(m *machine.Machine, cfg Config) *Recorder {
	if cfg.Perfetto == nil && cfg.Metrics == nil {
		return nil
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	}
	if cfg.MetricsEvery == 0 {
		cfg.MetricsEvery = cfg.SampleEvery
	}
	r := &Recorder{
		m:           m,
		cfg:         cfg,
		perNode:     make([][]trace.Event, m.NumNodes()),
		lastSampled: -1,
		lastSnap:    -1,
	}
	if cfg.Perfetto != nil {
		r.pw = NewPerfetto(cfg.Perfetto)
		r.pw.SetHandlerNames(cfg.HandlerName)
	}
	if cfg.Metrics != nil {
		r.menc = json.NewEncoder(cfg.Metrics)
	}
	for i := range m.Nodes {
		slot := &r.perNode[i]
		m.Nodes[i].Watch = func(e trace.Event) { *slot = append(*slot, e) }
	}
	m.Net.AddDeliverFn(func(node int, msg *network.Message, cycle int64) {
		if r.closed {
			return
		}
		r.flows = append(r.flows, flowEvent{
			cycle: cycle, node: int32(node), src: msg.Src, pri: msg.Pri,
			words: int16(len(msg.Words)),
		})
	})
	m.Net.AddDropFn(func(node int, msg *network.Message, reason network.DropReason, cycle int64) {
		if r.closed {
			return
		}
		r.flows = append(r.flows, flowEvent{
			cycle: cycle, node: int32(node), src: msg.Src, pri: msg.Pri,
			words: int16(len(msg.Words)), drop: true, reason: reason,
		})
	})
	//jm:pins the recorder samples every cycle by design; recording runs accept the pinned horizon
	m.AddCycleFn(func(cycle int64) {
		if r.closed {
			return
		}
		// Cycle hooks fire after the counter advances and before the
		// stepper, so everything staged belongs to cycles < cycle.
		r.drain(cycle - 1)
	})
	return r
}

// drain exports everything staged through the end of cycle `through`.
// Runs on the coordinating goroutine only.
func (r *Recorder) drain(through int64) {
	if r.cfg.SampleEvery > 0 && through >= 0 && through%int64(r.cfg.SampleEvery) == 0 &&
		through != r.lastSampled && r.pw != nil {
		r.sample(through)
	}
	if r.menc != nil && r.cfg.MetricsEvery > 0 && through >= 0 &&
		through%int64(r.cfg.MetricsEvery) == 0 && through != r.lastSnap {
		r.snapshot(through)
	}
	for i := range r.perNode {
		if r.pw != nil {
			for _, e := range r.perNode[i] {
				r.pw.Event(e)
				r.events++
			}
		} else {
			r.events += uint64(len(r.perNode[i]))
		}
		r.perNode[i] = r.perNode[i][:0]
	}
	if r.pw != nil {
		for _, f := range r.flows {
			name := fmt.Sprintf("deliver←n%03d", f.src)
			args := map[string]any{"words": f.words, "pri": f.pri}
			if f.drop {
				name = "drop " + f.reason.String()
				args["src"] = f.src
			}
			r.pw.Instant(f.cycle, f.node, tidNet, name, args)
		}
	}
	r.netEvents += uint64(len(r.flows))
	r.flows = r.flows[:0]
}

// sample emits one round of per-node counter tracks at ts. Reads
// exported state only.
func (r *Recorder) sample(ts int64) {
	r.lastSampled = ts
	r.samples++
	for i, n := range r.m.Nodes {
		node := int32(i)
		r.pw.Counter(ts, node, "queue (words)", map[string]any{
			"p0": n.Queues[0].Used(), "p1": n.Queues[1].Used(),
		})
		r.pw.Counter(ts, node, "router (phits)", map[string]any{
			"phits": r.m.Net.RouterOcc(i),
		})
		r.pw.Counter(ts, node, "outbox (msgs)", map[string]any{
			"p0": r.m.Net.OutboxDepth(i, 0), "p1": r.m.Net.OutboxDepth(i, 1),
		})
		cats := make(map[string]any, stats.NumCats)
		for c := stats.Cat(0); c < stats.NumCats; c++ {
			cats[c.String()] = n.Stats.Cycles[c]
		}
		r.pw.Counter(ts, node, "cycles by cat", cats)
		if r.cfg.PerLink {
			links := make(map[string]any, network.NumPorts)
			for p := 0; p < network.NumPorts; p++ {
				links[linkNames[p]] = r.m.Net.LinkOcc(i, p)
			}
			r.pw.Counter(ts, node, "links (phits)", links)
		}
	}
}

func (r *Recorder) snapshot(ts int64) {
	r.lastSnap = ts
	r.snaps++
	if err := r.menc.Encode(takeSnapshot(r.m, ts)); err != nil && r.err == nil {
		r.err = err
	}
}

// Stats reports what the recorder exported.
type RecorderStats struct {
	NodeEvents uint64
	NetEvents  uint64
	Samples    uint64
	Snapshots  uint64
	Timeline   int // Perfetto trace-event objects
}

// Stats returns export counts so far. Nil-safe.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	s := RecorderStats{
		NodeEvents: r.events, NetEvents: r.netEvents,
		Samples: r.samples, Snapshots: r.snaps,
	}
	if r.pw != nil {
		s.Timeline = r.pw.Count()
	}
	return s
}

// Sync drains everything staged through the current cycle to the
// configured writers without closing them, so a live service can serve
// the on-disk timeline mid-run (Perfetto's JSON reader tolerates the
// missing terminator). Recording continues afterwards. Like Close it
// must run between cycles on the coordinating goroutine. Callers that
// buffer the sinks flush their own writers after Sync returns.
// Nil-safe; a no-op after Close.
func (r *Recorder) Sync() error {
	if r == nil || r.closed {
		if r == nil {
			return nil
		}
		return r.err
	}
	r.drain(r.m.Cycle())
	return r.err
}

// Close drains any staged events from the final cycle, emits a closing
// sample and snapshot, terminates the timeline, and detaches the node
// taps. Safe to call more than once and on a nil Recorder.
func (r *Recorder) Close() error {
	if r == nil || r.closed {
		if r == nil {
			return nil
		}
		return r.err
	}
	now := r.m.Cycle()
	r.drain(now)
	// Always record the final state, even off-period.
	if r.pw != nil && r.lastSampled != now && r.cfg.SampleEvery > 0 {
		r.sample(now)
	}
	if r.menc != nil && r.lastSnap != now && r.cfg.MetricsEvery > 0 {
		r.snapshot(now)
	}
	r.closed = true
	for i := range r.m.Nodes {
		r.m.Nodes[i].Watch = nil
	}
	if r.pw != nil {
		if err := r.pw.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}
