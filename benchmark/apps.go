package main

// The apps workload: the paper's four applications, run back to back
// through their public Run functions and checked against each one's
// Reference.

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/compiled"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
)

// setupHook is the applications' Params.Setup: it runs inside Run once
// the machine is built and loaded, before it starts.
type setupHook func(*machine.Machine, *rt.Runtime)

// app is one application run with its seeded inputs bound and its
// expected answer computed by the application's own Reference.
type app struct {
	name  string // unique: names the run in checks and in golden.json
	group string // the application: names its apps.<group>_s metric
	want  int64
	run   func(setupHook) (cycles, answer int64, m *machine.Machine, err error)
}

// tspInstances is the number of seeded distance matrices one pass
// solves. A branch-and-bound's length swings with its matrix (3× between
// seeds at 9 cities) and TSP steps faster than the other three, so a
// single instance makes the pass's cycles per second a function of the
// seed; several smaller ones average that out.
const tspInstances = 4

// hashKeys folds a key sequence into one comparable answer.
func hashKeys(keys []int32) int64 {
	h := fnv.New64a()
	var b [4]byte
	for _, k := range keys {
		b[0], b[1], b[2], b[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		h.Write(b[:])
	}
	return int64(h.Sum64())
}

// newApps generates the four applications' inputs from the seed and
// computes the answers they must produce.
func newApps(seed int64, quick bool) []app {
	nodes := 64
	lp := lcs.Params{LenA: 256, LenB: 512, Seed: seed}
	rp := radix.Params{Keys: 4096, Seed: seed}
	qp := nqueens.Params{N: 9, SplitDepth: 2}
	cities := 7
	if quick {
		nodes = 8
		lp.LenA, lp.LenB = 64, 128
		rp.Keys = 512
		qp.N = 7
		cities = 5
	}
	a, b := lp.Strings()
	apps := []app{
		{"lcs", "lcs", int64(lcs.Reference(a, b)), func(h setupHook) (int64, int64, *machine.Machine, error) {
			p := lp
			p.Setup = h
			r, err := lcs.Run(nodes, p)
			return r.Cycles, int64(r.Length), r.M, err
		}},
		{"radix", "radix", hashKeys(radix.Reference(rp.Input())), func(h setupHook) (int64, int64, *machine.Machine, error) {
			p := rp
			p.Setup = h
			r, err := radix.Run(nodes, p)
			return r.Cycles, hashKeys(r.Sorted), r.M, err
		}},
		{"nqueens", "nqueens", int64(nqueens.Reference(qp.N)), func(h setupHook) (int64, int64, *machine.Machine, error) {
			p := qp
			p.Setup = h
			r, err := nqueens.Run(nodes, p)
			return r.Cycles, int64(r.Solutions), r.M, err
		}},
	}
	for k := 0; k < tspInstances; k++ {
		tp := tsp.Params{Cities: cities, Seed: seed*tspInstances + int64(k)}
		apps = append(apps, app{fmt.Sprintf("tsp%d", k), "tsp", int64(tsp.Reference(tp.Matrix())), func(h setupHook) (int64, int64, *machine.Machine, error) {
			p := tp
			p.Setup = h
			r, err := tsp.Run(nodes, p)
			return r.Cycles, int64(r.Best), r.M, err
		}})
	}
	return apps
}

// appsOutcome is what every pass over the applications must reproduce
// exactly, whatever stepped its machines. The slices are indexed like
// the app list.
type appsOutcome struct {
	cycles, answers []int64
	digests         []uint64 // final StateDigest of each Run's machine
}

// appsPass is one back-to-back pass over the applications.
type appsPass struct {
	appsOutcome
	wall     []float64 // seconds inside each Run
	machines []*machine.Machine
}

func newAppsPass(n int) *appsPass {
	return &appsPass{
		appsOutcome: appsOutcome{make([]int64, n), make([]int64, n), make([]uint64, n)},
		wall:        make([]float64, n), machines: make([]*machine.Machine, n),
	}
}

func (p *appsPass) totalCycles() (c int64) {
	for _, v := range p.cycles {
		c += v
	}
	return c
}

func (p *appsPass) totalWall() (s float64) {
	for _, v := range p.wall {
		s += v
	}
	return s
}

// window is the pass as one window of the timed phase, and as one
// request: the applications' own times depend on the seed far more than
// their sum does (tspInstances).
func (p *appsPass) window() window {
	return window{elapsed: p.totalWall(), cycles: p.totalCycles(), lat: sample{ms(p.totalWall())}}
}

// production installs the configuration the repo names as production on
// a machine an application built: the compiled tier on top of the
// machine.New defaults.
func production(m *machine.Machine, _ *rt.Runtime) {
	if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
		panic(fmt.Sprintf("compiled.Attach: %v", err))
	}
}

// runApps makes one pass. around, when non-nil, brackets each Run (the
// traced pass opens and closes its slice span there).
func runApps(apps []app, hook setupHook, around func(i int, run func())) (*appsPass, error) {
	p := newAppsPass(len(apps))
	for i, a := range apps {
		var err error
		run := func() {
			t := time.Now()
			p.cycles[i], p.answers[i], p.machines[i], err = a.run(hook)
			p.wall[i] = time.Since(t).Seconds()
		}
		if around != nil {
			around(i, run)
		} else {
			run()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		p.machines[i].SetStepper(nil) // a traced pass's spans end with Run
		p.machines[i].StepN(settleCycles)
		p.digests[i] = p.machines[i].StateDigest()
	}
	return p, nil
}

// settleCycles is how far each application's machine is stepped past
// Run's exit before its state is compared between passes. Run returns
// when node 0 halts. A node the compiled tier has fused a window on has
// by then run ahead of the clock, so at that exact cycle its state can
// differ from the interpreter's; the two agree again once the window
// has retired (README, "What the checks found"). Every pass settles the
// same way, so the comparison stays exact.
const settleCycles = 4096

// checkAnswers requires every application's answer to be its Reference.
func checkAnswers(res *result, apps []app, p *appsPass, pass string) {
	for i, a := range apps {
		res.check(p.answers[i] == a.want, "%s pass: %s answered %d, its Reference says %d", pass, a.name, p.answers[i], a.want)
	}
}

// checkSame requires a pass to have ended, application by application,
// at the production pass's cycle and in its state.
func checkSame(res *result, apps []app, prod appsOutcome, p *appsPass, pass string) {
	for i, a := range apps {
		res.check(p.cycles[i] == prod.cycles[i], "%s pass: %s took %d cycles, production %d", pass, a.name, p.cycles[i], prod.cycles[i])
		res.check(p.digests[i] == prod.digests[i], "%s pass: %s ended in digest %016x, production %016x", pass, a.name, p.digests[i], prod.digests[i])
	}
}

func pinApps(res *result, apps []app, p appsOutcome) {
	for i, a := range apps {
		res.exact[a.name+"_cycles"] = p.cycles[i]
		res.exact[a.name+"_answer"] = p.answers[i]
	}
}

// oracleApps is the interpreter check pass.
func oracleApps(res *result, apps []app, prod appsOutcome) (*appsPass, error) {
	p, err := runApps(apps, nil, nil)
	if err != nil {
		return nil, err
	}
	checkAnswers(res, apps, p, "interpreter")
	checkSame(res, apps, prod, p, "interpreter")
	return p, nil
}

// runAppsWorkload is the untraced run: the end-to-end metrics.
func runAppsWorkload(cfg config, res *result) error {
	var apps []app
	setUpS, err := cfg.timeSetUps(func() error {
		apps = newApps(cfg.seed, cfg.quick)
		return nil
	})
	if err != nil {
		return err
	}

	var ws []window
	var first appsOutcome
	var last *appsPass // its machines are the live heap
	for start := time.Now(); len(ws) < checkWindows || time.Since(start).Seconds() < cfg.seconds; {
		p, err := runApps(apps, production, nil)
		if err != nil {
			return err
		}
		checkAnswers(res, apps, p, "production")
		if len(ws) == 0 {
			first = p.appsOutcome
			pinApps(res, apps, first)
		}
		checkSame(res, apps, first, p, "repeated production")
		ws = append(ws, p.window())
		last = p
	}

	res.setTimings(ws)
	res.set("setup_s", setUpS)
	res.set("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(last)

	_, err = oracleApps(res, apps, first)
	return err
}

// traceAppsWorkload is the traced run: the per-layer metrics, from
// untraced and traced passes made alternately.
func traceAppsWorkload(cfg config, res *result) error {
	apps := newApps(cfg.seed, cfg.quick)
	log := newSpanLog(cfg.quick)
	tr := &tracer{log: log}
	var attach sample
	tracedHook := func(m *machine.Machine, r *rt.Runtime) {
		t := time.Now()
		production(m, r)
		attach = append(attach, ms(time.Since(t).Seconds()))
		m.SetStepper(tr)
		log.child(layerBuild, log.curStart, time.Since(log.curStart))
	}
	around := func(_ int, run func()) {
		log.beginSlice()
		run()
		log.endSlice()
	}

	var ws []window // the untraced passes
	var tracedS float64
	walls := map[string]sample{} // by application: its seconds per pass
	var prod appsOutcome
	var traced *appsPass
	for start := time.Now(); len(ws) < checkWindows || time.Since(start).Seconds() < cfg.seconds/2; {
		p, err := runApps(apps, production, nil)
		if err != nil {
			return err
		}
		perApp := map[string]float64{}
		for i, a := range apps {
			perApp[a.group] += p.wall[i]
		}
		for group, w := range perApp {
			walls[group] = append(walls[group], w)
		}
		if traced, err = runApps(apps, tracedHook, around); err != nil {
			return err
		}
		tracedS += traced.totalWall()
		if len(ws) == 0 {
			prod = p.appsOutcome
			pinApps(res, apps, prod)
			checkAnswers(res, apps, p, "production")
			checkAnswers(res, apps, traced, "traced")
			checkSame(res, apps, prod, traced, "traced")
		}
		ws = append(ws, p.window())
	}
	passes := float64(len(ws))
	untraced := pool(ws)

	// Simulated counts come from the machines of the last traced pass;
	// every pass repeats them exactly. The clocks are Run's own: the
	// machines have since been stepped on to settle.
	var counts simCounts
	for _, m := range traced.machines {
		counts = counts.plus(countsOf(m), passes)
	}
	counts.cycles = float64(traced.totalCycles()) * passes
	res.setLayers(log, tr, counts)
	// Run builds its machine itself: apps.build spans cover assembly,
	// machine.New and the memory image, up to and including the hook.
	res.set("machine.new_ms", ms(log.seconds(layerBuild))/float64(log.total[layerBuild].calls))
	res.set("compiled.attach_ms", attach.median())
	for group, w := range walls {
		res.set("apps."+group+"_s", w.median())
	}
	res.set("apps.cycles_total", float64(traced.totalCycles()))
	res.setClient(ws)
	// Both kinds of pass simulate the same cycles, so the ratio of their
	// rates is the inverse ratio of their times.
	res.set("trace.overhead_ratio", ratio(untraced.elapsed, tracedS))

	oracle, err := oracleApps(res, apps, prod)
	if err != nil {
		return err
	}
	res.set("mdp.oracle_ratio", ratio(untraced.cyclesPerS(), oracle.window().cyclesPerS()))

	var events uint64
	var recs []*obs.Recorder
	watched, err := runApps(apps, func(m *machine.Machine, r *rt.Runtime) {
		production(m, r)
		recs = append(recs, obs.Attach(m, obs.Config{Perfetto: io.Discard}))
	}, nil)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		rec.Close()
		st := rec.Stats()
		events += st.NodeEvents + st.NetEvents
	}
	checkSame(res, apps, prod, watched, "obs")
	res.set("obs.overhead_ratio", ratio(watched.window().cyclesPerS(), untraced.cyclesPerS()))
	res.set("obs.events", float64(events))

	return log.write(cfg.outDir, cfg.workload)
}
