package bench

import (
	"fmt"
	"math/rand"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

// Figure 3: every node repeats a loop that selects a random destination,
// sends an L-word message, waits for an L-word acknowledgement, and then
// idles for w cycles to simulate computation. The idle duration sets the
// offered load. A base case with no messages calibrates the loop's own
// cost, exactly as in the paper; one-way latency is the round-trip
// residue divided by two.
//
// Acknowledgements travel at priority 1 — the mechanism the MDP provides
// to keep reply traffic from deadlocking against request traffic.

const (
	fig3TableBase = 3000 // random-destination table (node words)
	fig3TableSize = 256

	fig3OffMask  = 0 // table index mask
	fig3OffIdle  = 1 // idle-loop iterations
	fig3OffIters = 2 // completed exchanges
	fig3OffFlag  = 3 // ack-arrived flag
	fig3OffSkew  = 4 // start-up delay iterations (decorrelates phases)
)

// buildFig3Program assembles the exchange loop for message length words;
// withSends=false builds the base-case loop used for calibration, which
// halts after haltAfter iterations so the loop's deterministic cost can
// be measured exactly (haltAfter=0 runs forever).
func buildFig3Program(words int, withSends bool, haltAfter int32) *asm.Program {
	b := asm.NewBuilder()
	app := int32(rt.AppBase)

	bb := b.Label("main").
		MoveI(isa.A2, app).
		MoveI(isa.R2, 0). // table index
		// Start-up skew: nodes begin at random phases so per-iteration
		// averages are free of lockstep truncation bias.
		Move(isa.R3, asm.Mem(isa.A2, fig3OffSkew)).
		Bf(isa.R3, "loop").
		Label("skew").
		Sub(isa.R3, asm.Imm(1)).
		Bt(isa.R3, "skew")
	bb.Label("loop").
		St(isa.ZERO, asm.Mem(isa.A2, fig3OffFlag)).
		MoveI(isa.A0, fig3TableBase).
		Move(isa.R0, asm.MemR(isa.A0, isa.R2))
	if withSends {
		b.Send(asm.R(isa.R0)).
			MoveHdr(isa.R1, "fig3.echo", int(words)).
			Send(asm.R(isa.R1))
		if words == 2 {
			b.SendE(asm.R(isa.NNR))
		} else {
			b.Send(asm.R(isa.NNR))
			for i := 0; i < words-3; i++ {
				b.Send(asm.R(isa.ZERO))
			}
			b.SendE(asm.R(isa.ZERO))
		}
		b.Label("spin").
			Move(isa.R1, asm.Mem(isa.A2, fig3OffFlag)).
			Bf(isa.R1, "spin")
	}
	b.Move(isa.R3, asm.Mem(isa.A2, fig3OffIdle)).
		Bf(isa.R3, "afteridle").
		Label("idle").
		Sub(isa.R3, asm.Imm(1)).
		Bt(isa.R3, "idle").
		Label("afteridle").
		Add(isa.R2, asm.Imm(1)).
		And(isa.R2, asm.Mem(isa.A2, fig3OffMask)).
		Move(isa.R1, asm.Mem(isa.A2, fig3OffIters)).
		Add(isa.R1, asm.Imm(1)).
		St(isa.R1, asm.Mem(isa.A2, fig3OffIters))
	// Both variants share the loop closing so their costs match cycle
	// for cycle; the loaded runs pass an unreachable halt count.
	b.Lt(isa.R1, asm.Imm(haltAfter)).
		Bt(isa.R1, "loop").
		Halt()
	if withSends {
		// fig3.echo: [hdr, sender, pads...] — return an L-word ack at
		// priority 1.
		b.Label("fig3.echo").
			Send1(asm.Mem(isa.A3, 1)).
			MoveHdr(isa.R1, "fig3.ack", int(words)).
			Send1(asm.R(isa.R1))
		for i := 0; i < words-2; i++ {
			b.Send1(asm.R(isa.ZERO))
		}
		b.SendE1(asm.R(isa.ZERO)).
			Suspend()

		// fig3.ack: [hdr, pads...] — raise the client's flag.
		b.Label("fig3.ack").
			MoveI(isa.A0, app).
			MoveI(isa.R0, 1).
			St(isa.R0, asm.Mem(isa.A0, fig3OffFlag)).
			Suspend()
	}
	rt.BuildLib(b)
	return b.MustAssemble()
}

// seedFig3 writes every node's loop parameters for idleIters idle
// iterations: the table mask, plus a start-up skew and a
// random-destination table drawn from r.
func seedFig3(m *machine.Machine, idleIters int, r *rand.Rand) {
	period := 4*idleIters + 120
	for _, n := range m.Nodes {
		n.Mem.Write(rt.AppBase+fig3OffMask, word.Int(fig3TableSize-1))
		n.Mem.Write(rt.AppBase+fig3OffIdle, word.Int(int32(idleIters)))
		n.Mem.Write(rt.AppBase+fig3OffSkew, word.Int(int32(r.Intn(period/2+1))))
		for i := 0; i < fig3TableSize; i++ {
			n.Mem.Write(fig3TableBase+int32(i), m.Net.NodeWord(r.Intn(m.NumNodes())))
		}
	}
}

// fig3Point is one measured load point.
type fig3Point struct {
	Words        int
	IdleIters    int
	LatencyCyc   float64 // one-way, paper's method
	TrafficMbits float64 // bisection traffic
	Exchanges    int64
	Efficiency   float64 // computation fraction of total time
	GrainCycles  float64
}

// runFig3Point runs one (L, w) configuration and the matching base
// case. sc applies to the loaded k×k×k machine (the single-node base
// case always runs the zero configuration).
func runFig3Point(sc sim.Config, k, words, idleIters int, warm, measure int64, seed int64) (fig3Point, error) {
	// Base case: the loop without messages is deterministic, so its
	// per-iteration cost is measured exactly on a single node that
	// halts after a fixed iteration count.
	const baseIters = 200
	baseIter, err := func() (float64, error) {
		p := buildFig3Program(words, false, baseIters)
		m, err := machine.New(machine.Grid(1, 1, 1), p)
		if err != nil {
			return 0, err
		}
		rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		m.Nodes[0].Mem.Write(rt.AppBase+fig3OffMask, word.Int(fig3TableSize-1))
		m.Nodes[0].Mem.Write(rt.AppBase+fig3OffIdle, word.Int(int32(idleIters)))
		rt.StartNode(m, p, 0, "main")
		if err := m.RunUntilHalt(0, int64(baseIters)*(4*int64(idleIters)+200)+10000); err != nil {
			return 0, err
		}
		return float64(m.Cycle()) / baseIters, nil
	}()
	if err != nil {
		return fig3Point{}, err
	}

	// Loaded case: all nodes exchange with random partners.
	p := buildFig3Program(words, true, 1<<30)
	m, err := machine.New(machine.Cube(k), p)
	if err != nil {
		return fig3Point{}, err
	}
	run, err := sc.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		return fig3Point{}, err
	}
	defer stopRun(run)
	seedFig3(m, idleIters, rand.New(rand.NewSource(seed)))
	rt.StartAll(m, p, "main")
	if err := run.PreRun(); err != nil {
		return fig3Point{}, err
	}
	m.StepN(warm)
	startIters := totalIters(m)
	startStats := m.Net.Stats()
	m.StepN(measure)
	if err := m.FatalErr(); err != nil {
		return fig3Point{}, err
	}
	loaded := float64(totalIters(m)-startIters) / float64(m.NumNodes())
	endStats := m.Net.Stats()
	// Per-direction bisection traffic, matching the paper's 14.4 Gb/s
	// capacity convention (64 channels × 225 Mb/s each way).
	bisectBits := float64(endStats.BisectionPhits-startStats.BisectionPhits) * 18 / 2
	cycles := float64(measure)
	if loaded == 0 {
		return fig3Point{}, fmt.Errorf("fig3: no iterations completed (L=%d w=%d)", words, idleIters)
	}
	loadedIter := cycles / loaded // full exchange cycles per iteration
	latency := (loadedIter - baseIter) / 2
	grain := baseIter
	return fig3Point{
		Words:        words,
		IdleIters:    idleIters,
		LatencyCyc:   latency,
		TrafficMbits: Mbits(bisectBits / cycles),
		Exchanges:    int64(loaded),
		Efficiency:   grain / loadedIter,
		GrainCycles:  grain,
	}, nil
}

func totalIters(m *machine.Machine) int64 {
	var t int64
	for _, n := range m.Nodes {
		w, _ := n.Mem.Read(rt.AppBase + fig3OffIters)
		t += int64(w.Data())
	}
	return t
}

// Fig3Result holds both panels of Figure 3.
type Fig3Result struct {
	Latency    []Series // one-way latency (cycles) vs bisection Mbits/s
	Efficiency []Series // processor efficiency vs grain size (cycles)
	// SaturationMbits estimates where the 16-word curve saturates.
	SaturationMbits float64
}

// Fig3 sweeps idle time for message lengths 2, 4, 8, and 16 words.
func Fig3(o Options) (*Fig3Result, error) {
	k := 8
	warm, measure := int64(30_000), int64(60_000)
	idles := []int{0, 8, 16, 32, 64, 128, 256, 512, 1024}
	if o.Quick {
		k = 4
		warm, measure = 10_000, 25_000
		idles = []int{0, 16, 64, 256, 1024}
	}
	res := &Fig3Result{}
	lengths := []int{2, 4, 8, 16}
	type job struct{ li, wi int }
	points := make([][]fig3Point, len(lengths))
	errs := make([][]error, len(lengths))
	var jobs []job
	for li := range lengths {
		points[li] = make([]fig3Point, len(idles))
		errs[li] = make([]error, len(idles))
		for wi := range idles {
			jobs = append(jobs, job{li, wi})
		}
	}
	// Every point is an independent machine, so sweep them in parallel.
	runParallel(len(jobs), func(j int) {
		li, wi := jobs[j].li, jobs[j].wi
		words, w := lengths[li], idles[wi]
		// Long idle loops need longer windows so enough exchanges
		// complete for stable per-iteration averages.
		win := measure
		if need := int64(40 * (2*w + 300)); need > win {
			win = need
		}
		pt, err := runFig3Point(o.Config, k, words, w, warm, win, int64(words*1000+w))
		points[li][wi], errs[li][wi] = pt, err
		if err == nil {
			o.progress("fig3 L=%d w=%d traffic=%.0f Mb/s latency=%.1f eff=%.2f",
				words, w, pt.TrafficMbits, pt.LatencyCyc, pt.Efficiency)
		}
	})
	for li, words := range lengths {
		lat := Series{Label: fmt.Sprintf("%d words", words)}
		eff := Series{Label: fmt.Sprintf("%d words", words)}
		for wi := range idles {
			if err := errs[li][wi]; err != nil {
				return nil, err
			}
			pt := points[li][wi]
			lat.Points = append(lat.Points, Point{X: pt.TrafficMbits, Y: pt.LatencyCyc})
			eff.Points = append(eff.Points, Point{X: pt.GrainCycles, Y: pt.Efficiency})
		}
		res.Latency = append(res.Latency, lat)
		res.Efficiency = append(res.Efficiency, eff)
	}
	// Saturation: the highest traffic any 16-word point reaches.
	for _, p := range res.Latency[3].Points {
		if p.X > res.SaturationMbits {
			res.SaturationMbits = p.X
		}
	}
	return res, nil
}

// Tables renders both panels.
func (r *Fig3Result) Tables() []*Table {
	left := SeriesTable("Figure 3 (left): one-way latency (cycles) vs bisection traffic (Mbits/s)",
		"Mbits/s", "cycles", r.Latency)
	left.Notes = append(left.Notes,
		fmt.Sprintf("peak measured bisection traffic %.0f Mbits/s (paper: saturation ≈6000 of 14400 peak)", r.SaturationMbits))
	right := SeriesTable("Figure 3 (right): processor efficiency vs grain size (cycles)",
		"grain", "efficiency", r.Efficiency)
	return []*Table{left, right}
}
