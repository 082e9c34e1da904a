package bench

import (
	"fmt"

	"jmachine/internal/apps/tsp"
	"jmachine/internal/cst"
	"jmachine/internal/rt"
)

// Tab5Result holds the major components of cost for TSP (Table 5),
// split between user code (the task-processing, bound-distributing, and
// completion threads) and the operating system (the COSMOS-style
// scheduler, work redistribution, and runtime services).
type Tab5Result struct {
	Nodes         int
	RunTimeMs     float64
	UserThreads   uint64
	OSThreads     uint64
	UserInstrs    uint64
	OSInstrs      uint64
	Xlates        uint64
	XlateFaults   uint64
	UserPerThread float64
	OSPerThread   float64
	UserMsgLen    float64
	OSMsgLen      float64
}

// Table5 runs TSP and decomposes its cost: user threads are the
// method-invocation handlers (task slices, continuations, bound updates,
// completion reports); the operating system is the scheduler, work
// redistribution, and runtime-library handlers.
func Table5(o Options) (*Tab5Result, error) {
	nodes := 64
	params := tspParams(o)
	if o.Quick {
		nodes = 8
		params = tsp.Params{Cities: 8, Seed: 11}
	}
	run, setup, preRun := o.Hooks(nil)
	params.Setup, params.PreRun = setup, preRun
	res, err := tsp.Run(nodes, params)
	stopRun(run)
	if err != nil {
		return nil, err
	}
	m, p := res.M, res.P

	user := []string{tsp.LTask, cst.LCont, tsp.LBound, tsp.LDoneMsg}
	os := []string{cst.LSched, cst.LRequest, cst.LGrant, cst.LNoWork, cst.LHalt, rt.LRestore}

	sum := func(labels []string) (threads, instrs, msgWords uint64) {
		for _, l := range labels {
			if !p.HasLabel(l) {
				continue
			}
			h := m.Stats.HandlerTotal(p.Entry(l))
			threads += h.Invocations
			instrs += h.Instrs
			msgWords += h.MsgWords
		}
		return
	}
	ut, ui, uw := sum(user)
	ot, oi, ow := sum(os)

	var xlates uint64
	for _, n := range m.Nodes {
		xlates += n.Xl.Stats().Hits + n.Xl.Stats().Misses
	}

	out := &Tab5Result{
		Nodes:       nodes,
		RunTimeMs:   Micros(float64(res.Cycles)) / 1000,
		UserThreads: ut, OSThreads: ot,
		UserInstrs: ui, OSInstrs: oi,
		Xlates:      xlates,
		XlateFaults: m.Stats.XlateFaults(),
	}
	if ut > 0 {
		out.UserPerThread = float64(ui) / float64(ut)
		out.UserMsgLen = float64(uw) / float64(ut)
	}
	if ot > 0 {
		out.OSPerThread = float64(oi) / float64(ot)
		out.OSMsgLen = float64(ow) / float64(ot)
	}
	o.progress("tab5 done: %d user threads, %d OS threads", ut, ot)
	return out, nil
}

// Table renders Table 5.
func (r *Tab5Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 5: major components of cost for TSP (%d nodes)", r.Nodes),
		Columns: []string{"Metric", "User", "O/S"},
		Rows: [][]string{
			{"Run Time (msec)", fmt.Sprintf("%.2f", r.RunTimeMs), ""},
			{"# Threads (Msgs)", fmt.Sprintf("%d", r.UserThreads), fmt.Sprintf("%d", r.OSThreads)},
			{"# Instructions", fmt.Sprintf("%d", r.UserInstrs), fmt.Sprintf("%d", r.OSInstrs)},
			{"# xlates", fmt.Sprintf("%d", r.Xlates), ""},
			{"# xlate Faults", fmt.Sprintf("%d", r.XlateFaults), ""},
			{"Instr/Thread (mean)", fmt.Sprintf("%.0f", r.UserPerThread), fmt.Sprintf("%.0f", r.OSPerThread)},
			{"Avg Msg Length", fmt.Sprintf("%.1f", r.UserMsgLen), fmt.Sprintf("%.1f", r.OSMsgLen)},
		},
	}
	t.Notes = append(t.Notes,
		"user = task/bound/result threads entered via the scheduler; O/S = work redistribution and runtime services")
	return t
}
