package bench

import (
	"fmt"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/stats"
)

// ThreadClassRow is one thread class of Table 4.
type ThreadClassRow struct {
	Name        string
	Threads     uint64
	KInstr      float64
	InstrThread float64
	MsgLength   float64
}

// Tab4App is one application column of Table 4.
type Tab4App struct {
	Name      string
	RunTimeMs float64
	Classes   []ThreadClassRow
}

// Tab4Result holds application statistics for the assembly and Tuned-J
// applications, as in Table 4.
type Tab4Result struct {
	Nodes int
	Apps  []Tab4App
}

// Table4 runs LCS, N-Queens, and Radix Sort on a 64-node machine and
// reports, for each application's two major thread classes: invocation
// count, instructions executed, average thread length, and invoking
// message length. Background driver threads (StartUp, Sort) have no
// invoking message; their message length is reported as the paper's
// value of the boot convention (1).
func Table4(o Options) (*Tab4Result, error) {
	nodes := 64
	if o.Quick {
		nodes = 8
	}
	res := &Tab4Result{Nodes: nodes}

	classRow := func(name string, h stats.HandlerStats) ThreadClassRow {
		row := ThreadClassRow{
			Name:    name,
			Threads: h.Invocations,
			KInstr:  float64(h.Instrs) / 1000,
		}
		if h.Invocations > 0 {
			row.InstrThread = float64(h.Instrs) / float64(h.Invocations)
			row.MsgLength = float64(h.MsgWords) / float64(h.Invocations)
		}
		return row
	}

	// LCS.
	lcsP := lcsParams(o)
	run, setup, preRun := o.Hooks(nil)
	lcsP.Setup, lcsP.PreRun = setup, preRun
	lr, err := lcs.Run(nodes, lcsP)
	stopRun(run)
	if err != nil {
		return nil, err
	}
	startup := classRow("StartUp", lr.M.Stats.HandlerTotal(-1))
	startup.Threads = 1 // node 0's single generator thread
	startup.InstrThread = startup.KInstr * 1000
	startup.MsgLength = 1
	res.Apps = append(res.Apps, Tab4App{
		Name:      "LCS",
		RunTimeMs: Micros(float64(lr.Cycles)) / 1000,
		Classes: []ThreadClassRow{
			classRow("NxtChar", lr.M.Stats.HandlerTotal(lr.P.Entry(lcs.LNxtChar))),
			startup,
		},
	})
	o.progress("tab4 LCS done")

	// N-Queens.
	nqP := nqParams(o)
	run, setup, preRun = o.Hooks(nil)
	nqP.Setup, nqP.PreRun = setup, preRun
	nr, err := nqueens.Run(nodes, nqP)
	stopRun(run)
	if err != nil {
		return nil, err
	}
	res.Apps = append(res.Apps, Tab4App{
		Name:      "NQueens",
		RunTimeMs: Micros(float64(nr.Cycles)) / 1000,
		Classes: []ThreadClassRow{
			classRow("NQueens", nr.M.Stats.HandlerTotal(nr.P.Entry(nqueens.LTask))),
			classRow("NQDone", nr.M.Stats.HandlerTotal(nr.P.Entry(nqueens.LDone))),
		},
	})
	o.progress("tab4 NQueens done")

	// Radix Sort.
	radixP := radixParams(o)
	run, setup, preRun = o.Hooks(nil)
	radixP.Setup, radixP.PreRun = setup, preRun
	rr, err := radix.Run(nodes, radixP)
	stopRun(run)
	if err != nil {
		return nil, err
	}
	sort := classRow("Sort", rr.M.Stats.HandlerTotal(-1))
	sort.Threads = uint64(nodes) // one background Sort thread per node
	sort.InstrThread = sort.KInstr * 1000 / float64(nodes)
	sort.MsgLength = 1
	res.Apps = append(res.Apps, Tab4App{
		Name:      "RadixSort",
		RunTimeMs: Micros(float64(rr.Cycles)) / 1000,
		Classes: []ThreadClassRow{
			sort,
			classRow("Write", rr.M.Stats.HandlerTotal(rr.P.Entry(radix.LWrite))),
		},
	})
	o.progress("tab4 Radix done")
	return res, nil
}

// Table renders Table 4.
func (r *Tab4Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 4: application statistics (%d nodes)", r.Nodes),
		Columns: []string{"App", "RunTime ms", "Thread", "#Threads", "#K Instr", "Instr/Thread", "Msg Length"},
	}
	for _, app := range r.Apps {
		for i, c := range app.Classes {
			name, rtime := "", ""
			if i == 0 {
				name = app.Name
				rtime = fmt.Sprintf("%.2f", app.RunTimeMs)
			}
			t.Rows = append(t.Rows, []string{
				name, rtime, c.Name,
				fmt.Sprintf("%d", c.Threads),
				fmt.Sprintf("%.1f", c.KInstr),
				fmt.Sprintf("%.0f", c.InstrThread),
				fmt.Sprintf("%.1f", c.MsgLength),
			})
		}
	}
	return t
}
