package main

// The three mesh workloads — exchange, compute, sparse — share one
// driver: build a machine, warm it, step it in slices of a fixed number
// of simulated cycles and time each slice.

import (
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"jmachine/internal/asm"
	"jmachine/internal/ckpt"
	"jmachine/internal/compiled"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
)

// meshWorkload sizes one mesh workload. Sizes are in simulated units,
// so the simulated statistics at the check cycle repeat exactly.
type meshWorkload struct {
	nodes int
	// warm cycles precede the timed phase. A request is one StepN of
	// slice cycles, about 0.05 s of host time.
	warm, slice int64
	program     func() *asm.Program
	linksRT     bool // the image links the runtime library
	boot        func(*machine.Machine, *asm.Program, *rand.Rand)
	shardCheck  bool // also run the shards=2 check pass
	obsCheck    bool // also run the obs check pass
}

const (
	slicesPerWindow = 5
	// checkWindows is the number of timed windows after which the clock
	// is stopped at the check cycle, where every pass's state must agree
	// and the goldens are pinned. Every run measures that many at least.
	checkWindows = 2
)

func meshWorkloads(quick bool) map[string]meshWorkload {
	w := map[string]meshWorkload{
		"exchange": {nodes: 512, warm: 2000, slice: 500,
			program: func() *asm.Program { return loopProgram(true) }, linksRT: true,
			boot: bootExchange, shardCheck: true, obsCheck: true},
		"compute": {nodes: 512, warm: 2000, slice: 20_000,
			program: func() *asm.Program { return loopProgram(false) },
			boot:    bootCompute},
		"sparse": {nodes: 4096, warm: 2000, slice: 2_000,
			program: ringProgram, linksRT: true,
			boot: bootRing, shardCheck: true},
	}
	if quick {
		for name, q := range w {
			q.nodes /= 8
			q.warm /= 4
			q.slice /= 10
			w[name] = q
		}
	}
	return w
}

// checkCycles is the distance from the end of the warm-up to the check
// cycle.
func (w meshWorkload) checkCycles() int64 { return checkWindows * slicesPerWindow * w.slice }

// meshMachine is one built machine and what building it cost.
type meshMachine struct {
	m      *machine.Machine
	savers []ckpt.Saver

	assembleS, newS, attachS float64
}

// build assembles the program and boots a machine on it. production
// selects the configuration the repo names as production: event-horizon
// fast path (the machine.New default), compiled tier, sequential
// stepper. Without it the handler tier is the interpreter, the oracle.
func (w meshWorkload) build(seed int64, production bool) (*meshMachine, error) {
	mm := &meshMachine{}
	t := time.Now()
	p := w.program()
	mm.assembleS = time.Since(t).Seconds()

	t = time.Now()
	m, err := machine.New(machine.GridForNodes(w.nodes), p)
	if err != nil {
		return nil, err
	}
	mm.newS = time.Since(t).Seconds()
	mm.m = m
	if w.linksRT {
		mm.savers = []ckpt.Saver{rt.Attach(m, rt.Info(p), rt.DefaultPolicy())}
	}
	if production {
		t = time.Now()
		if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
			return nil, err
		}
		mm.attachS = time.Since(t).Seconds()
	}
	w.boot(m, p, rand.New(rand.NewSource(seed)))
	return mm, nil
}

// setUp is everything before the first timed slice.
func (w meshWorkload) setUp(seed int64, production bool) (*meshMachine, error) {
	mm, err := w.build(seed, production)
	if err != nil {
		return nil, err
	}
	mm.m.StepN(w.warm)
	return mm, mm.m.FatalErr()
}

// timedWindow steps one window and times each of its slices.
func (w meshWorkload) timedWindow(m *machine.Machine) window {
	win := window{cycles: slicesPerWindow * w.slice}
	for i := 0; i < slicesPerWindow; i++ {
		t := time.Now()
		m.StepN(w.slice)
		d := time.Since(t).Seconds()
		win.elapsed += d
		win.lat = append(win.lat, ms(d))
	}
	return win
}

// pinExact records the simulated statistics golden.json pins, taken at
// the check cycle with the clock stopped.
func pinExact(res *result, m *machine.Machine) {
	ns := m.Net.Stats()
	res.exact["cycle"] = m.Cycle()
	res.exact["instrs"] = int64(m.Stats.Instrs())
	res.exact["phit_hops"] = int64(ns.PhitHops)
	res.exact["delivered_msgs"] = int64(ns.DeliveredMsgs[0] + ns.DeliveredMsgs[1])
}

// checkPass brings a differently configured machine to the check cycle
// and requires the state the production machine had there. It returns
// the pass's stepping rate over the slice.
func (w meshWorkload) checkPass(res *result, name string, seed int64, production bool, want uint64,
	attach func(*machine.Machine) (stop func())) (float64, error) {
	mm, err := w.build(seed, production)
	if err != nil {
		return 0, err
	}
	stop := attach(mm.m)
	mm.m.StepN(w.warm)
	t := time.Now()
	mm.m.StepN(w.checkCycles())
	wall := time.Since(t)
	stop()
	res.check(mm.m.FatalErr() == nil, "%s pass: %v", name, mm.m.FatalErr())
	got := mm.m.StateDigest()
	res.check(got == want, "%s pass: digest %016x at cycle %d, production run had %016x", name, got, mm.m.Cycle(), want)
	return float64(w.checkCycles()) / wall.Seconds(), nil
}

// oraclePass is the interpreter check pass.
func (w meshWorkload) oraclePass(res *result, seed int64, want uint64) (float64, error) {
	return w.checkPass(res, "interpreter", seed, false, want, func(*machine.Machine) func() { return func() {} })
}

// runMesh is the untraced run: the end-to-end metrics.
func runMesh(cfg config, w meshWorkload, res *result) error {
	var mm *meshMachine
	setUpS, err := cfg.timeSetUps(func() (err error) {
		mm = nil // the previous machine must not count as live
		mm, err = w.setUp(cfg.seed, true)
		return err
	})
	if err != nil {
		return err
	}
	m := mm.m

	var ws []window
	var checkDigest uint64
	for start := time.Now(); len(ws) < checkWindows || time.Since(start).Seconds() < cfg.seconds; {
		ws = append(ws, w.timedWindow(m))
		if len(ws) == checkWindows {
			pinExact(res, m)
			checkDigest = m.StateDigest()
		}
	}
	res.check(m.FatalErr() == nil, "production run: %v", m.FatalErr())

	res.setTimings(ws)
	res.set("setup_s", setUpS)
	res.set("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(mm)

	_, err = w.oraclePass(res, cfg.seed, checkDigest)
	return err
}

// traceMesh is the traced run: the per-layer metrics. An untraced and a
// traced machine advance window for window, so the tracing overhead is
// measured on paired slices and the two states can be compared at any
// window boundary.
func traceMesh(cfg config, w meshWorkload, res *result) error {
	plain, err := w.setUp(cfg.seed, true)
	if err != nil {
		return err
	}
	traced, err := w.setUp(cfg.seed, true)
	if err != nil {
		return err
	}
	log := newSpanLog(cfg.quick)
	tr := &tracer{log: log}
	traced.m.SetStepper(tr)
	before := countsOf(traced.m)

	var ws []window // the untraced machine's
	var checkDigest uint64
	for start := time.Now(); len(ws) < checkWindows || time.Since(start).Seconds() < cfg.seconds/2; {
		ws = append(ws, w.timedWindow(plain.m))
		for i := 0; i < slicesPerWindow; i++ {
			log.beginSlice()
			traced.m.StepN(w.slice)
			log.endSlice()
		}
		if len(ws) == checkWindows {
			pinExact(res, plain.m)
			t := time.Now()
			checkDigest = plain.m.StateDigest()
			res.set("machine.digest_ms", ms(time.Since(t).Seconds()))
			got := traced.m.StateDigest()
			res.check(got == checkDigest, "traced run: digest %016x at the check cycle, untraced %016x", got, checkDigest)
		}
	}
	traced.m.SetStepper(nil)
	res.check(plain.m.FatalErr() == nil, "production run: %v", plain.m.FatalErr())
	res.check(traced.m.FatalErr() == nil, "traced run: %v", traced.m.FatalErr())
	endDigest := plain.m.StateDigest()
	res.check(traced.m.StateDigest() == endDigest, "traced run: final digest differs from the untraced run's at cycle %d", plain.m.Cycle())

	untraced := pool(ws)
	res.setLayers(log, tr, countsOf(traced.m).plus(before, -1))
	res.set("machine.new_ms", ms((plain.newS+traced.newS)/2))
	res.set("compiled.attach_ms", ms((plain.attachS+traced.attachS)/2))
	res.set("asm.assemble_ms", ms((plain.assembleS+traced.assembleS)/2))
	res.setClient(ws)
	// Both machines stepped the same cycles, so the ratio of their rates
	// is the inverse ratio of their times.
	res.set("trace.overhead_ratio", ratio(untraced.elapsed, log.seconds(layerSlice)))

	// Check passes: each brings another configuration to the check cycle
	// and must land in the production state. Its rate is set against the
	// production machine's over the same cycles.
	production := pool(ws[:checkWindows]).cyclesPerS()
	rate, err := w.oraclePass(res, cfg.seed, checkDigest)
	if err != nil {
		return err
	}
	res.set("mdp.oracle_ratio", ratio(production, rate))
	if w.shardCheck {
		var eng *engine.Engine
		rate, err := w.checkPass(res, "shards=2", cfg.seed, true, checkDigest, func(m *machine.Machine) func() {
			eng = engine.Attach(m, 2)
			return eng.Stop
		})
		if err != nil {
			return err
		}
		res.set("engine.rendezvous", float64(eng.Rendezvous()))
		res.set("engine.sharded_ratio", ratio(rate, production))
	}
	if w.obsCheck {
		var rec *obs.Recorder
		rate, err := w.checkPass(res, "obs", cfg.seed, true, checkDigest, func(m *machine.Machine) func() {
			rec = obs.Attach(m, obs.Config{Perfetto: io.Discard})
			return func() { rec.Close() }
		})
		if err != nil {
			return err
		}
		st := rec.Stats()
		res.set("obs.overhead_ratio", ratio(rate, production))
		res.set("obs.events", float64(st.NodeEvents+st.NetEvents))
	}
	if err := w.ckptRoundTrip(cfg, res, plain, endDigest); err != nil {
		return err
	}
	return log.write(cfg.outDir, cfg.workload)
}

// ckptRoundTrip times each checkpoint function on the run's machine and
// requires the restored copy to be in the captured state.
func (w meshWorkload) ckptRoundTrip(cfg config, res *result, mm *meshMachine, want uint64) error {
	fresh, err := w.build(cfg.seed, true)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, cfg.workload+".ckpt")
	got, err := timeCkpt(res, path, mm.m, mm.savers, fresh.m, fresh.savers)
	if err != nil {
		return err
	}
	res.check(got == want, "checkpoint round trip: restored digest %016x, captured %016x", got, want)
	return nil
}
