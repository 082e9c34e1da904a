package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// unit is one row of the metric tables below; BENCHMARK.json repeats
// them (the smoke test checks the two agree).
type unit struct{ name, unit string }

// endToEnd lists what a user of the system sees, printed with -trace 0.
// A "request" is one StepN slice on the mesh workloads, one pass of the
// four applications on apps, and one HTTP kv batch on the serve
// workloads.
var endToEnd = []unit{
	{"sim_cycles_per_s", "1/s"},
	{"live_heap_mb", "MiB"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer lists the traced breakdown, printed with -trace 1. A layer a
// workload does not exercise reports 0.
var perLayer = []unit{
	{"network.step_s", "s"},
	{"network.step_share", "ratio"},
	{"network.step_calls", "count"},
	{"network.skip_calls", "count"},
	{"network.phit_hops", "count"},
	{"network.ns_per_phit_hop", "ns"},
	{"network.delivered_msgs", "count"},
	{"network.mean_latency_cycles", "cycles"},
	{"machine.node_phase_s", "s"},
	{"machine.node_phase_share", "ratio"},
	{"machine.publish_quiet_s", "s"},
	{"machine.loop_self_s", "s"},
	{"machine.loop_self_share", "ratio"},
	{"machine.stepped_cycles", "count"},
	{"machine.skipped_cycles", "count"},
	{"machine.live_nodes_per_cycle", "count"},
	{"machine.new_ms", "ms"},
	{"machine.digest_ms", "ms"},
	{"mdp.instrs", "count"},
	{"mdp.ns_per_instr", "ns"},
	{"mdp.fused_share", "ratio"},
	{"mdp.no_license_share", "ratio"},
	{"mdp.oracle_ratio", "ratio"},
	{"compiled.attach_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"engine.rendezvous", "count"},
	{"engine.sharded_ratio", "ratio"},
	{"obs.overhead_ratio", "ratio"},
	{"obs.events", "count"},
	{"ckpt.capture_ms", "ms"},
	{"ckpt.encode_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.write_ms", "ms"},
	{"ckpt.read_ms", "ms"},
	{"ckpt.restore_ms", "ms"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p90", "ms"},
	{"serve.http_overhead_ms_p50", "ms"},
	{"serve.sim_ms_per_req", "ms"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.acquire_evicted_ms_p50", "ms"},
	{"serve.restore_share", "ratio"},
	{"serve.recover_ms", "ms"},
	{"serve.sim_cycles_per_req", "cycles"},
	{"cst.kv_cycles_p50", "cycles"},
	{"cst.kv_cycles_p99", "cycles"},
	{"apps.lcs_s", "s"},
	{"apps.radix_s", "s"},
	{"apps.nqueens_s", "s"},
	{"apps.tsp_s", "s"},
	{"apps.cycles_total", "cycles"},
	{"client.all_req_per_s", "1/s"},
	{"client.all_p50_ms", "ms"},
	{"client.all_p90_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.accounted_share", "ratio"},
}

// result is what one workload run produces.
type result struct {
	metrics map[string]float64
	// exact holds the simulated statistics golden.json pins: they may
	// never move under a host-side change.
	exact map[string]int64

	attempted, failed int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, exact: map[string]int64{}}
}

// check counts one exact check and reports a failure on standard error.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// sample is a set of timings or rates reduced by order statistics.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank p-quantile (0 < p <= 1); 0 when empty.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	i := int(math.Ceil(p*float64(len(o)))) - 1
	if i < 0 {
		i = 0
	}
	return o[i]
}

func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	if n := len(o); n%2 == 0 {
		return (o[n/2-1] + o[n/2]) / 2
	}
	return o[len(o)/2]
}

func (s sample) max() float64 { return s.quantile(1) }

// window is a run of consecutive requests of the timed phase: what they
// took and, on the simulation workloads, how far they advanced the
// simulated clock.
type window struct {
	elapsed float64 // host seconds
	cycles  int64   // simulated cycles
	lat     sample  // each request's time, ms
}

func (w window) reqPerS() float64 { return float64(len(w.lat)) / w.elapsed }

// cyclesPerS is simulated cycles per host second. On the serve
// workloads that is the rate as served, what the sessions' clocks
// advanced by; the simulator alone is serve.sim_ms_per_req.
func (w window) cyclesPerS() float64 { return float64(w.cycles) / w.elapsed }

// quietShare is the share of a run's windows the end-to-end timings are
// taken from: those with the most requests per second. This host's
// disk and memory system alternate, tens of seconds at a time, between
// a quiet state and one 20-35% slower (README, "Steadiness"); the
// disturbance only ever adds time, so the quietest windows are the ones
// that show the program.
const quietShare = 0.2

// pool merges windows into one.
func pool(ws []window) window {
	var p window
	for _, w := range ws {
		p.elapsed += w.elapsed
		p.cycles += w.cycles
		p.lat = append(p.lat, w.lat...)
	}
	return p
}

// quiet pools the quietest quietShare of the windows, at least one.
func quiet(ws []window) window {
	order := append([]window(nil), ws...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].reqPerS() > order[j].reqPerS() })
	keep := int(quietShare*float64(len(order)) + 0.5)
	if keep < 1 {
		keep = 1
	}
	return pool(order[:keep])
}

// setTimings reports the end-to-end timings from the quiet windows.
func (r *result) setTimings(ws []window) {
	q := quiet(ws)
	r.set("sim_cycles_per_s", q.cyclesPerS())
	r.set("req_per_s", q.reqPerS())
	r.set("latency_p50_ms", q.lat.median())
	r.set("latency_p90_ms", q.lat.quantile(0.9))
}

// setClient reports, in the traced run, the same three over every
// window, and the tail the bounded percentiles leave out.
func (r *result) setClient(ws []window) {
	a := pool(ws) // the run as it was, disturbed parts included
	r.set("client.all_req_per_s", a.reqPerS())
	r.set("client.all_p50_ms", a.lat.median())
	r.set("client.all_p90_ms", a.lat.quantile(0.9))
	r.set("client.latency_p99_ms", a.lat.quantile(0.99))
	r.set("client.max_ms", a.lat.max())
}

// liveHeapMiB is the heap still reachable after a collection. The
// caller keeps whatever it wants counted alive across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(seconds float64) float64 { return seconds * 1e3 }
