package main

// Outside-in tracing: spans are recorded from the benchmark's own code
// around calls into each layer's public functions. Nothing inside the
// program is instrumented.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"jmachine/internal/machine"
)

type layer uint8

const (
	// layerSlice is the parent span: one StepN slice, one application
	// Run, or one client request.
	layerSlice layer = iota
	layerNetStep
	layerNetSkip
	layerPublish
	layerNodes
	layerBuild   // apps: Run's machine construction, up to the Setup hook's return
	layerHandler // serve: the HTTP handler, timed by the middleware
	numLayers
)

var layerNames = [numLayers]string{
	"slice", "network.step", "network.skip", "machine.publish_quiet",
	"machine.node_phase", "apps.build", "serve.handler",
}

// maxSpans bounds the span buffer; totals keep accumulating past it.
const maxSpans = 200_000

type span struct {
	layer  layer
	parent int32 // index of the enclosing slice span, -1 when that fell outside the buffer
	start  int64 // ns since the log's epoch
	dur    int64
}

type layerTotal struct {
	ns, calls int64
}

// spanLog holds the spans of one traced run in a preallocated buffer
// and writes them out at exit. It is not synchronised: the simulation
// workloads record from the goroutine that steps the machine, the serve
// workloads file their requests' spans once the clients have stopped.
type spanLog struct {
	epoch time.Time
	spans []span
	total [numLayers]layerTotal
	// selfNs sums, over the slices, the slice's duration less its child
	// spans. worstOver is the largest share of a slice by which its
	// child spans overran it, which nesting spans never do.
	selfNs    int64
	worstOver float64

	cur      int32 // open slice's index in spans
	curStart time.Time
	curChild int64
}

func newSpanLog(quick bool) *spanLog {
	capSpans := maxSpans
	if quick {
		capSpans /= 20
	}
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capSpans), cur: -1}
}

// child records a span under the open slice.
func (l *spanLog) child(ly layer, start time.Time, dur time.Duration) {
	l.curChild += int64(dur)
	l.total[ly].ns += int64(dur)
	l.total[ly].calls++
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{ly, l.cur, int64(start.Sub(l.epoch)), int64(dur)})
	}
}

// openSlice starts a parent span at start; child spans recorded until
// closeSlice belong to it.
func (l *spanLog) openSlice(start time.Time) {
	l.curStart, l.curChild, l.cur = start, 0, -1
	if len(l.spans) < cap(l.spans) {
		l.cur = int32(len(l.spans))
		l.spans = append(l.spans, span{layerSlice, -1, int64(start.Sub(l.epoch)), 0})
	}
}

// closeSlice ends the open slice at dur and books its self time: the
// slice's duration less the part its child spans cover.
func (l *spanLog) closeSlice(dur time.Duration) {
	l.total[layerSlice].ns += int64(dur)
	l.total[layerSlice].calls++
	if l.cur >= 0 {
		l.spans[l.cur].dur = int64(dur)
	}
	if self := int64(dur) - l.curChild; self >= 0 {
		l.selfNs += self
	} else if over := float64(-self) / float64(dur); over > l.worstOver {
		l.worstOver = over
	}
	l.cur = -1
}

func (l *spanLog) beginSlice() { l.openSlice(time.Now()) }

func (l *spanLog) endSlice() { l.closeSlice(time.Since(l.curStart)) }

func (l *spanLog) seconds(ly layer) float64 { return float64(l.total[ly].ns) / 1e9 }

// write stores the totals and the buffered spans as Chrome trace-event
// JSON, the format internal/obs emits, so both load in the same viewer.
func (l *spanLog) write(dir, workload string) error {
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","totals":{"self":{"ns":%d}`, l.selfNs)
	for ly, t := range l.total {
		fmt.Fprintf(w, `,%q:{"ns":%d,"calls":%d}`, layerNames[ly], t.ns, t.calls)
	}
	w.WriteString(`},"traceEvents":[`)
	var buf []byte
	for i, s := range l.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, layerNames[s.layer]...)
		buf = append(buf, `","ph":"X","pid":0,"tid":`...)
		buf = strconv.AppendInt(buf, int64(s.layer), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.dur)/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer is the benchmark's machine.Stepper. It mirrors the machine's
// sequential cycle body call for call — the same seam internal/engine
// implements — and times each call. The machine keeps advancing the
// clock, firing hooks and skipping dead windows itself; that remainder
// is the enclosing slice's self time.
type tracer struct {
	log     *spanLog
	liveSum int64 // live nodes summed over stepped cycles
}

func (t *tracer) StepCycle(m *machine.Machine) {
	t0 := time.Now()
	ly := layerNetStep
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
		ly = layerNetSkip
	} else {
		m.Net.Step()
	}
	t1 := time.Now()
	m.PublishNetQuiet()
	t2 := time.Now()
	live, _ := m.StepNodeRangeInfo(0, m.NumNodes())
	t3 := time.Now()
	t.liveSum += int64(live)
	t.log.child(ly, t0, t1.Sub(t0))
	t.log.child(layerPublish, t1, t2.Sub(t1))
	t.log.child(layerNodes, t2, t3.Sub(t2))
}

// steppedCycles is the number of cycles that reached the stepper; the
// rest of the clock's advance was skipped as dead windows.
func (t *tracer) steppedCycles() int64 { return t.log.total[layerNodes].calls }

// simCounts are the simulated statistics the traced run sets host time
// against. They are exact: every pass over the same cycles repeats them.
type simCounts struct {
	cycles, instrs, hops, delivered, latencySum float64
	// From FusionStats: instructions retired inside fusion windows, and
	// of the boundaries the compiled tier was offered, those it ran
	// without a fusion licence.
	fused, noLicense, boundaries float64
}

func countsOf(m *machine.Machine) simCounts {
	ns, fs := m.Net.Stats(), m.FusionStats()
	return simCounts{
		cycles: float64(m.Cycle()), instrs: float64(m.Stats.Instrs()), hops: float64(ns.PhitHops),
		delivered:  float64(ns.DeliveredMsgs[0] + ns.DeliveredMsgs[1]),
		latencySum: float64(ns.LatencySum[0] + ns.LatencySum[1]),
		fused:      float64(fs.Windows + fs.Fused), noLicense: float64(fs.NoLicense), boundaries: float64(fs.Boundaries),
	}
}

// plus returns c + k·d.
func (c simCounts) plus(d simCounts, k float64) simCounts {
	return simCounts{
		c.cycles + k*d.cycles, c.instrs + k*d.instrs, c.hops + k*d.hops, c.delivered + k*d.delivered,
		c.latencySum + k*d.latencySum, c.fused + k*d.fused, c.noLicense + k*d.noLicense, c.boundaries + k*d.boundaries,
	}
}

// setLayers reports the network, machine and mdp metrics of a traced
// simulation: the spans' totals against the counts of what was
// simulated under them.
func (r *result) setLayers(log *spanLog, tr *tracer, c simCounts) {
	wall := log.seconds(layerSlice)
	stepped := float64(tr.steppedCycles())
	r.set("network.step_s", log.seconds(layerNetStep))
	r.set("network.step_share", ratio(log.seconds(layerNetStep), wall))
	r.set("network.step_calls", float64(log.total[layerNetStep].calls))
	r.set("network.skip_calls", float64(log.total[layerNetSkip].calls))
	r.set("network.phit_hops", c.hops)
	r.set("network.ns_per_phit_hop", ratio(float64(log.total[layerNetStep].ns), c.hops))
	r.set("network.delivered_msgs", c.delivered)
	r.set("network.mean_latency_cycles", ratio(c.latencySum, c.delivered))
	r.set("machine.node_phase_s", log.seconds(layerNodes))
	r.set("machine.node_phase_share", ratio(log.seconds(layerNodes), wall))
	r.set("machine.publish_quiet_s", log.seconds(layerPublish))
	r.set("machine.loop_self_s", float64(log.selfNs)/1e9)
	r.set("machine.loop_self_share", ratio(float64(log.selfNs)/1e9, wall))
	r.set("machine.stepped_cycles", stepped)
	r.set("machine.skipped_cycles", c.cycles-stepped)
	r.set("machine.live_nodes_per_cycle", ratio(float64(tr.liveSum), stepped))
	r.set("mdp.instrs", c.instrs)
	r.set("mdp.ns_per_instr", ratio(float64(log.total[layerNodes].ns), c.instrs))
	r.set("mdp.fused_share", ratio(c.fused, c.instrs))
	r.set("mdp.no_license_share", ratio(c.noLicense, c.boundaries))
	r.set("trace.spans", float64(len(log.spans)))
	r.set("trace.accounted_share", 1-log.worstOver)
	r.check(log.worstOver <= 0.02, "child spans exceed their slice by %.1f%% of it", 100*log.worstOver)
}
