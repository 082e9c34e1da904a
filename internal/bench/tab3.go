package bench

import (
	"fmt"

	"jmachine/internal/asm"
	"jmachine/internal/baseline"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// Tab3Result holds barrier times per machine size.
type Tab3Result struct {
	Nodes    []int
	Measured []float64 // µs per barrier on the simulator
	Rows     []baseline.BarrierRow
}

// barrierBench builds the barrier measurement program: every node runs
// `inner` barriers back-to-back; node 0 records timestamps before and
// after, then halts.
func barrierBenchProgram(inner int) *asm.Program {
	b := asm.NewBuilder()
	bb := b.Label("main").
		Bsr(isa.R3, rt.LBarInit).
		// One warm-up barrier aligns all nodes before timing.
		Bsr(isa.R3, rt.LBarrier).
		MoveI(isa.A2, rt.AppBase).
		Move(isa.R0, asm.R(isa.CYC)).
		St(isa.R0, asm.Mem(isa.A2, 1)). // start timestamp
		MoveI(isa.R0, int32(inner)).
		St(isa.R0, asm.Mem(isa.A2, 2))
	bb.Label("main.loop").
		Bsr(isa.R3, rt.LBarrier).
		MoveI(isa.A2, rt.AppBase).
		Move(isa.R0, asm.Mem(isa.A2, 2)).
		Sub(isa.R0, asm.Imm(1)).
		St(isa.R0, asm.Mem(isa.A2, 2)).
		Bt(isa.R0, "main.loop").
		Move(isa.R0, asm.R(isa.CYC)).
		St(isa.R0, asm.Mem(isa.A2, 3)). // end timestamp
		MoveI(isa.A1, 0).
		Move(isa.R1, asm.Mem(isa.A1, rt.AddrNodeID)).
		Bt(isa.R1, "main.rest").
		Halt().
		Label("main.rest").
		Suspend()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// MeasureBarrier returns the time per barrier, in cycles, on an N-node
// machine: the mean over `inner` back-to-back barriers after a warm-up
// barrier, timed from the point the thread calls the routine to the
// point it resumes (the paper's definition). The machine runs under sc.
func MeasureBarrier(nodes, inner int, sc sim.Config) (float64, error) {
	p := barrierBenchProgram(inner)
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		return 0, err
	}
	run, err := sc.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		return 0, err
	}
	defer stopRun(run)
	rt.StartAll(m, p, "main")
	if err := run.PreRun(); err != nil {
		return 0, err
	}
	if err := m.RunUntilHalt(0, 50_000_000); err != nil {
		return 0, err
	}
	start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 1)
	end, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
	return float64(end.Data()-start.Data()) / float64(inner), nil
}

// Table3 measures the scan-style software barrier across machine sizes
// and lays the results beside the published figures for EM4, the KSR-1,
// the iPSC/860, and the Delta.
func Table3(o Options) (*Tab3Result, error) {
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	if o.Quick {
		sizes = []int{2, 4, 8, 16}
	}
	res := &Tab3Result{Rows: baseline.Table3Published()}
	for _, n := range sizes {
		cycles, err := MeasureBarrier(n, 8, o.Config)
		if err != nil {
			return nil, fmt.Errorf("barrier at %d nodes: %w", n, err)
		}
		res.Nodes = append(res.Nodes, n)
		res.Measured = append(res.Measured, Micros(cycles))
		o.progress("tab3 n=%d barrier=%.1f cycles (%.2f µs)", n, cycles, Micros(cycles))
	}
	return res, nil
}

// Table renders Table 3.
func (r *Tab3Result) Table() *Table {
	t := &Table{
		Title:   "Table 3: Software barrier synchronization (µs)",
		Columns: []string{"Nodes", "J (measured)", "J (paper)", "EM4", "KSR", "IPSC/860", "Delta"},
	}
	pub := make(map[int]baseline.BarrierRow)
	for _, row := range r.Rows {
		pub[row.Nodes] = row
	}
	cell := func(m map[string]float64, key string) string {
		if v, ok := m[key]; ok {
			return fmt.Sprintf("%.1f", v)
		}
		return "-"
	}
	for i, n := range r.Nodes {
		row := pub[n]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", r.Measured[i]),
			cell(row.Micros, "J"),
			cell(row.Micros, "EM4"),
			cell(row.Micros, "KSR"),
			cell(row.Micros, "IPSC/860"),
			cell(row.Micros, "Delta"),
		})
	}
	t.Notes = append(t.Notes, "comparison columns are the published figures the paper cites")
	return t
}
