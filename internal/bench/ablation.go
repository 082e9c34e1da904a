package bench

import (
	"fmt"

	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/network"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// Ablation studies for the design choices the paper's critique singles
// out. Each varies one mechanism and re-measures the experiment it
// affects most directly.

// AblationResult is a generic labelled-row result.
type AblationResult struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Table converts the result for printing.
func (a *AblationResult) Table() *Table {
	return &Table{Title: a.Title, Columns: a.Columns, Rows: a.Rows, Notes: a.Notes}
}

// AblateDispatch contrasts the MDP's 4-cycle hardware dispatch with an
// interrupt-style software dispatch (tens of cycles, as on the machines
// of Table 1): its effect on the null-RPC round trip and the barrier.
func AblateDispatch(o Options) (*AblationResult, error) {
	res := &AblationResult{
		Title:   "Ablation: hardware vs software message dispatch",
		Columns: []string{"Dispatch", "self-ping RTT (cycles)", "16-node barrier (µs)"},
	}
	for _, v := range []struct {
		name     string
		dispatch int32
	}{
		{"hardware (4 cycles)", 4},
		{"software (30 cycles)", 30},
	} {
		p := buildMicroProgram(buildPingClient)
		cfg := machine.Grid(1, 1, 1)
		cfg.MDP.Timing = timingWithDispatch(v.dispatch)
		rtt, err := runRoundTrip(sim.Config{}, p, cfg, 0, nil)
		if err != nil {
			return nil, err
		}
		bar, err := measureBarrierCfg(16, 8, v.dispatch)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			v.name, fmt.Sprintf("%d", rtt), fmt.Sprintf("%.1f", Micros(bar)),
		})
		o.progress("ablate dispatch=%d rtt=%d barrier=%.0f", v.dispatch, rtt, bar)
	}
	res.Notes = append(res.Notes,
		"every message pays the dispatch twice per round trip and once per barrier wave")
	return res, nil
}

func timingWithDispatch(d int32) mdp.Timing {
	t := mdp.DefaultTiming()
	t.Dispatch = d
	return t
}

func measureBarrierCfg(nodes, inner int, dispatch int32) (float64, error) {
	p := barrierBenchProgram(inner)
	cfg := machine.GridForNodes(nodes)
	cfg.MDP.Timing = timingWithDispatch(dispatch)
	m, err := machine.New(cfg, p)
	if err != nil {
		return 0, err
	}
	rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	rt.StartAll(m, p, "main")
	if err := m.RunUntilHalt(0, 50_000_000); err != nil {
		return 0, err
	}
	start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 1)
	end, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
	return float64(end.Data()-start.Data()) / float64(inner), nil
}

// AblateArbitration contrasts the MDP router's fixed-priority output
// arbitration with round-robin under saturating random traffic. The
// paper observed that "arbitration for output channels occurs at a fixed
// priority and nodes may be unable to inject a message into the network
// for an arbitrarily long period of time during periods of high
// congestion", with per-node fault rates skewed by up to two orders of
// magnitude; round-robin removes the starvation.
func AblateArbitration(o Options) (*AblationResult, error) {
	k := 8
	warm, measure := int64(20_000), int64(40_000)
	if o.Quick {
		k = 4
		warm, measure = 10_000, 20_000
	}
	res := &AblationResult{
		Title:   "Ablation: router output arbitration (saturating random traffic)",
		Columns: []string{"Arbitration", "msgs/node (mean)", "min", "max", "starved nodes", "send-fault cycles"},
	}
	for _, v := range []struct {
		name string
		arb  network.Arbitration
	}{
		{"fixed priority (MDP)", network.FixedPriority},
		{"round robin", network.RoundRobin},
	} {
		st, err := runArbitrationPoint(k, v.arb, warm, measure)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f", st.mean),
			fmt.Sprintf("%d", st.min),
			fmt.Sprintf("%d", st.max),
			fmt.Sprintf("%d", st.starved),
			fmt.Sprintf("%d", st.faultCycles),
		})
		o.progress("ablate arb=%s mean=%.1f min=%d max=%d starved=%d",
			v.name, st.mean, st.min, st.max, st.starved)
	}
	res.Notes = append(res.Notes,
		"every node streams 3-word messages at the mesh centre at full rate",
		"starved = nodes making under a tenth of the mean progress; wormhole",
		"channel ownership, not just port arbitration, causes the lockout, so",
		"round-robin alone does not cure it — the return-to-sender protocol does")
	return res, nil
}

// runArbitrationPoint drives a sustained hotspot — every node streams
// 3-word messages at the mesh centre as fast as injection allows — and
// returns per-node progress statistics. Under fixed-priority output
// arbitration the ports closest in priority order keep winning the
// contended channels and distant nodes starve.
// arbStats summarizes per-node progress under the hotspot.
type arbStats struct {
	mean        float64
	min, max    int64
	starved     int
	faultCycles uint64
}

func runArbitrationPoint(k int, arb network.Arbitration, warm, measure int64) (arbStats, error) {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A2, rt.AppBase).
		Label("loop").
		Send(asm.Mem(isa.A2, 1)). // the hotspot node
		MoveHdr(isa.R1, "sink", 3).
		Send(asm.R(isa.R1)).
		Send2E(isa.R0, asm.R(isa.ZERO)).
		Move(isa.R1, asm.Mem(isa.A2, fig3OffIters)).
		Add(isa.R1, asm.Imm(1)).
		St(isa.R1, asm.Mem(isa.A2, fig3OffIters)).
		Br("loop")
	b.Label("sink").Suspend()
	rt.BuildLib(b)
	p, err := b.Assemble()
	if err != nil {
		return arbStats{}, err
	}
	cfg := machine.Cube(k)
	cfg.Net.Arbitration = arb
	m, err := machine.New(cfg, p)
	if err != nil {
		return arbStats{}, err
	}
	rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	centre := m.Net.NodeID(k/2, k/2, k/2)
	for id, n := range m.Nodes {
		n.Mem.Write(rt.AppBase+1, m.Net.NodeWord(centre))
		if id != centre {
			rt.StartNode(m, p, id, "main")
		}
	}
	m.StepN(warm)
	before := make([]int64, m.NumNodes())
	for i, n := range m.Nodes {
		w, _ := n.Mem.Read(rt.AppBase + fig3OffIters)
		before[i] = int64(w.Data())
	}
	m.StepN(measure)
	if err := m.FatalErr(); err != nil {
		return arbStats{}, err
	}
	st := arbStats{min: 1 << 62}
	var total int64
	deltas := make([]int64, 0, m.NumNodes()-1)
	for i, n := range m.Nodes {
		if i == centre {
			continue
		}
		w, _ := n.Mem.Read(rt.AppBase + fig3OffIters)
		d := int64(w.Data()) - before[i]
		deltas = append(deltas, d)
		total += d
		if d < st.min {
			st.min = d
		}
		if d > st.max {
			st.max = d
		}
		st.faultCycles += n.Stats.SendFaultCycles
	}
	st.mean = float64(total) / float64(len(deltas))
	for _, d := range deltas {
		if float64(d) < st.mean/10 {
			st.starved++
		}
	}
	return st, nil
}

// AblateQueueSize varies the hardware message-queue capacity under the
// radix-sort reorder phase, where every node simultaneously streams
// 3-word WriteData messages at the whole machine. Undersized queues
// push the burst back into the network as delivery stalls and send
// faults — the flow-control problem the paper's critique discusses.
func AblateQueueSize(o Options) (*AblationResult, error) {
	res := &AblationResult{
		Title:   "Ablation: hardware queue capacity (radix-sort reorder burst)",
		Columns: []string{"Queue (words)", "cycles", "send-fault cycles", "delivery stalls"},
	}
	nodes, keys := 16, 4096
	if o.Quick {
		nodes, keys = 8, 1024
	}
	// The reorder traffic is partly self-clocking — senders are
	// preempted by their own write handlers — so only severely
	// undersized queues expose the back-pressure. The floor is the
	// 18-word combining-tree message: a queue cannot deliver a message
	// longer than itself.
	for _, capWords := range []int{18, 32, 64, 512} {
		cw := capWords
		r, err := radix.Run(nodes, radix.Params{
			Keys: keys, Bits: 16, Seed: 11,
			Tune: func(c *machine.Config) { c.QueueCap = [2]int{cw, 256} },
		})
		if err != nil {
			return nil, err
		}
		var faultCycles uint64
		for _, ns := range r.M.Stats.Nodes {
			faultCycles += ns.SendFaultCycles
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cw),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%d", faultCycles),
			fmt.Sprintf("%d", r.M.Net.Stats().DeliveryStalls),
		})
		o.progress("ablate qcap=%d cycles=%d faults=%d", cw, r.Cycles, faultCycles)
	}
	res.Notes = append(res.Notes,
		"undersized queues turn the reorder burst into network back-pressure and injection stalls")
	return res, nil
}

// AblateFlowControl contrasts three answers to a queue that cannot hold
// the N-Queens task burst: plain wormhole back-pressure (the MDP),
// return-to-sender flow control (the critique's proposal), and the
// software queue-overflow handler that relocates messages to external
// memory. The paper notes the software handler "is relatively expensive
// and intended for transient traffic overruns".
func AblateFlowControl(o Options) (*AblationResult, error) {
	res := &AblationResult{
		Title:   "Ablation: flow control under the N-Queens task burst (8 nodes, 64-word queues)",
		Columns: []string{"Mechanism", "cycles", "send-fault cycles", "returned msgs", "overflow relocations"},
	}
	// A shallow split with a dedicated distribution node emits the
	// whole burst before any worker finishes its first task: ~90 boards
	// over 7 workers exceed the 64-word queues (8 boards each).
	const n = 10
	run := func(name string, tune func(*machine.Config)) error {
		r, err := nqueens.Run(8, nqueens.Params{
			N: n, SplitDepth: 2, ExcludeDriver: true, Tune: tune,
		})
		if err != nil {
			return err
		}
		var faultCycles, overflow uint64
		for _, ns := range r.M.Stats.Nodes {
			faultCycles += ns.SendFaultCycles
			overflow += ns.OverflowFaults
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%d", faultCycles),
			fmt.Sprintf("%d", r.M.Net.Stats().ReturnedMsgs),
			fmt.Sprintf("%d", overflow),
		})
		o.progress("ablate flow=%s cycles=%d", name, r.Cycles)
		return nil
	}
	small := func(c *machine.Config) { c.QueueCap = [2]int{64, 256} }
	if err := run("back-pressure (MDP)", small); err != nil {
		return nil, err
	}
	if err := run("return-to-sender", func(c *machine.Config) {
		small(c)
		c.Net.ReturnToSender = true
	}); err != nil {
		return nil, err
	}
	if err := run("software overflow handler", func(c *machine.Config) {
		small(c)
		c.MDP.SoftQueue = mdp.SoftQueueConfig{Enable: true}
	}); err != nil {
		return nil, err
	}
	return res, nil
}
