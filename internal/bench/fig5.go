package bench

import (
	"fmt"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/machine"
)

// appPoint is one application run at one machine size.
type appPoint struct {
	Nodes  int
	Cycles int64
	M      *machine.Machine
}

// appRunner runs one macro-benchmark at a node count.
type appRunner struct {
	Name string
	Run  func(nodes int) (appPoint, error)
}

// Application problem sizes per experiment scale. Sizes hold constant
// across machine sizes, as in the paper; the defaults are chosen so a
// 64-node machine is well loaded (hundreds of tasks, thousands of keys)
// while the full sweep still runs in seconds. EXPERIMENTS.md records
// the exact parameters of each published run.

func lcsParams(o Options) lcs.Params {
	switch {
	case o.PaperScale:
		return lcs.Params{LenA: 1024, LenB: 4096, Seed: 11}
	case o.Quick:
		return lcs.Params{LenA: 64, LenB: 128, Seed: 11}
	default:
		return lcs.Params{LenA: 1024, LenB: 1024, Seed: 11}
	}
}

func radixParams(o Options) radix.Params {
	switch {
	case o.PaperScale:
		return radix.Params{Keys: 65536, Bits: 28, Seed: 11}
	case o.Quick:
		return radix.Params{Keys: 512, Bits: 16, Seed: 11}
	default:
		return radix.Params{Keys: 8192, Bits: 28, Seed: 11}
	}
}

func nqParams(o Options) nqueens.Params {
	switch {
	case o.PaperScale:
		// Depth 3 yields 1,066 tasks for 13 queens — the paper reports
		// 1,030 NQueens threads.
		return nqueens.Params{N: 13, SplitDepth: 3}
	case o.Quick:
		return nqueens.Params{N: 7, SplitDepth: 2}
	default:
		return nqueens.Params{N: 10, SplitDepth: 3}
	}
}

func tspParams(o Options) tsp.Params {
	switch {
	case o.PaperScale:
		return tsp.Params{Cities: 14, Seed: 11}
	case o.Quick:
		return tsp.Params{Cities: 7, Seed: 11}
	default:
		return tsp.Params{Cities: 10, Seed: 11}
	}
}

// appRunners returns the four applications at the selected scale.
func appRunners(o Options) []appRunner {
	lcsP := lcsParams(o)
	radixP := radixParams(o)
	nqP := nqParams(o)
	tspP := tspParams(o)
	return []appRunner{
		{Name: "LCS", Run: func(n int) (appPoint, error) {
			p := lcsP
			run, setup, preRun := o.Hooks(nil)
			p.Setup, p.PreRun = setup, preRun
			r, err := lcs.Run(n, p)
			stopRun(run)
			if err != nil {
				return appPoint{}, err
			}
			return appPoint{Nodes: n, Cycles: r.Cycles, M: r.M}, nil
		}},
		{Name: "Radix Sort", Run: func(n int) (appPoint, error) {
			p := radixP
			run, setup, preRun := o.Hooks(nil)
			p.Setup, p.PreRun = setup, preRun
			r, err := radix.Run(n, p)
			stopRun(run)
			if err != nil {
				return appPoint{}, err
			}
			return appPoint{Nodes: n, Cycles: r.Cycles, M: r.M}, nil
		}},
		{Name: "N-Queens", Run: func(n int) (appPoint, error) {
			p := nqP
			run, setup, preRun := o.Hooks(nil)
			p.Setup, p.PreRun = setup, preRun
			r, err := nqueens.Run(n, p)
			stopRun(run)
			if err != nil {
				return appPoint{}, err
			}
			return appPoint{Nodes: n, Cycles: r.Cycles, M: r.M}, nil
		}},
		{Name: "TSP", Run: func(n int) (appPoint, error) {
			p := tspP
			run, setup, preRun := o.Hooks(nil)
			p.Setup, p.PreRun = setup, preRun
			r, err := tsp.Run(n, p)
			stopRun(run)
			if err != nil {
				return appPoint{}, err
			}
			return appPoint{Nodes: n, Cycles: r.Cycles, M: r.M}, nil
		}},
	}
}

// Fig5Result holds the speedup curves.
type Fig5Result struct {
	Series []Series // speedup vs nodes, per application
}

// Fig5 runs each application across machine sizes at a fixed problem
// size and reports speedup over the single-node run. For LCS, Radix
// Sort, and N-Queens the one-node run degenerates to the sequential
// algorithm (message overhead is amortized); for TSP the base is the
// parallel code on one node, exactly as in the paper.
func Fig5(o Options) (*Fig5Result, error) {
	maxNodes := 64
	if o.Quick {
		maxNodes = 16
	}
	if o.PaperScale {
		maxNodes = 512
	}
	var sizes []int
	for n := 1; n <= maxNodes; n *= 2 {
		sizes = append(sizes, n)
	}
	res := &Fig5Result{}
	apps := appRunners(o)
	type job struct{ ai, si int }
	var jobs []job
	cycles := make([][]int64, len(apps))
	errs := make([][]error, len(apps))
	for ai := range apps {
		cycles[ai] = make([]int64, len(sizes))
		errs[ai] = make([]error, len(sizes))
		for si := range sizes {
			jobs = append(jobs, job{ai, si})
		}
	}
	// Every (application, machine size) point is an independent run.
	runParallel(len(jobs), func(j int) {
		ai, si := jobs[j].ai, jobs[j].si
		pt, err := apps[ai].Run(sizes[si])
		if err != nil {
			errs[ai][si] = err
			return
		}
		cycles[ai][si] = pt.Cycles
		o.progress("fig5 %s n=%d cycles=%d", apps[ai].Name, sizes[si], pt.Cycles)
	})
	for ai, app := range apps {
		s := Series{Label: app.Name}
		for si, n := range sizes {
			if err := errs[ai][si]; err != nil {
				return nil, fmt.Errorf("%s at %d nodes: %w", app.Name, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: float64(cycles[ai][0]) / float64(cycles[ai][si])})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Table renders Figure 5.
func (r *Fig5Result) Table() *Table {
	t := SeriesTable("Figure 5: application speedup vs machine size", "nodes", "speedup", r.Series)
	t.Notes = append(t.Notes, "problem size held constant; base case is the 1-node run")
	return t
}
