package bench

// Chaos-campaign entry points: the Figure 2 ping and Table 3 barrier
// micro-benchmarks and the four applications re-run under a fault
// schedule, with the resilience machinery (checksums, return-to-sender,
// reliable delivery, the progress watchdog) switched on or off.
// cmd/jm-chaos drives these to measure survival and degradation.

import (
	"fmt"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/asm"
	"jmachine/internal/chaos"
	"jmachine/internal/ckpt"
	"jmachine/internal/machine"
	"jmachine/internal/network"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// ResilienceConfig selects the protection layers for a campaign run.
type ResilienceConfig struct {
	Nodes       int   // machine size (default 8)
	Checksum    bool  // NI checksum word + delivery-port verification
	RTS         bool  // return-to-sender flow control
	MaxReturns  int   // bound on refusals before the network drops (0 = unbounded)
	Watchdog    int64 // progress-watchdog window in cycles (0 = off)
	Reliable    bool  // ACK/timeout/retransmit runtime (rt.EnableReliable)
	ReliableCfg rt.ReliableConfig
	Budget      int64 // cycle budget (default 2,000,000)
	// Config is the run configuration (internal/sim): stepping mode,
	// handler tier, observability, checkpoint/resume. Results — the
	// StateDigest included — are byte-identical across all of it.
	sim.Config
	// Setup, when non-nil, runs on the campaign machine once the run
	// configuration is on it, before start-up: where a caller adds a
	// layer no Config field describes. The equivalence suites attach
	// internal/engine here and stop it after the run.
	Setup func(*machine.Machine)
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Budget <= 0 {
		c.Budget = 2_000_000
	}
	return c
}

// CampaignResult reports one workload run under a fault campaign.
type CampaignResult struct {
	Workload  string
	Completed bool  // the workload reached its normal end
	Err       error // the surfaced error otherwise (watchdog, fatal, budget)
	Cycles    int64 // machine cycles consumed
	Value     int64 // workload metric: ping RTT or cycles/barrier

	Net           network.Stats
	WatchdogTrips uint64
	HasReliable   bool
	Reliable      rt.ReliableStats
	ChaosReport   string
	// StateDigest folds the machine's final state (machine.StateDigest)
	// so runs under different configurations can be compared
	// byte-for-byte.
	StateDigest uint64
}

// campaignRun is one machine under a campaign: the layers the campaign
// adds between the runtime and the run configuration, and the attached
// run.
type campaignRun struct {
	rel *rt.Reliable
	inj *chaos.Injector
	run *sim.Run
}

// layers applies the resilience switches and the fault campaign to a
// machine — one prepare just built, or one an application's Setup hook
// hands over — and returns the savers it added, in attachment order.
func (c *campaignRun) layers(camp chaos.Campaign, rc ResilienceConfig) func(*machine.Machine, *rt.Runtime) []ckpt.Saver {
	return func(m *machine.Machine, r *rt.Runtime) []ckpt.Saver {
		m.Net.SetChecksum(rc.Checksum)
		m.Net.SetReturnToSender(rc.RTS)
		m.Net.SetMaxReturns(rc.MaxReturns)
		m.SetWatchdog(rc.Watchdog)
		var savers []ckpt.Saver
		if rc.Reliable {
			c.rel = rt.EnableReliable(r, rc.ReliableCfg)
			savers = append(savers, c.rel)
		}
		c.inj = chaos.Attach(m, camp)
		return append(savers, c.inj)
	}
}

// prepare builds a micro-benchmark machine for a campaign run: runtime,
// campaign layers, then the run configuration. The caller must defer
// c.run.Stop() and call c.run.PreRun() after the workload's start-up,
// immediately before the run loop.
func prepare(camp chaos.Campaign, rc ResilienceConfig, p *asm.Program) (*machine.Machine, *campaignRun, error) {
	m, err := machine.New(machine.GridForNodes(rc.Nodes), p)
	if err != nil {
		return nil, nil, err
	}
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	c := &campaignRun{}
	savers := append([]ckpt.Saver{r}, c.layers(camp, rc)(m, r)...)
	if c.run, err = rc.Attach(m, savers...); err == nil && rc.Setup != nil {
		rc.Setup(m)
	}
	return m, c, err
}

// collect stops the run and folds its outcome into a CampaignResult. m
// is nil when an application failed before building its machine. A
// trace-file write failure is the returned error: a campaign run with
// observability on exists to produce that file.
func (c *campaignRun) collect(name string, m *machine.Machine, cycles int64, runErr error, value int64) (*CampaignResult, error) {
	obsErr := c.run.Stop()
	res := &CampaignResult{
		Workload:  name,
		Completed: runErr == nil,
		Err:       runErr,
		Cycles:    cycles,
		Value:     value,
	}
	if m != nil {
		res.Net = m.Net.Stats()
		res.WatchdogTrips = m.WatchdogTrips
		res.StateDigest = m.StateDigest()
	}
	if c.inj != nil {
		res.ChaosReport = c.inj.Report()
	}
	if c.rel != nil {
		res.HasReliable = true
		res.Reliable = c.rel.Stats()
	}
	if obsErr != nil {
		return res, fmt.Errorf("%s: obs: %w", name, obsErr)
	}
	return res, nil
}

// RunCampaign runs one named workload under the fault campaign: the
// two micro-benchmarks (pingpong, and barrier with 4 inner barriers)
// or one of the four applications at its smoke-test size. cmd/jm-chaos
// and cmd/jm-trace (with an empty campaign) both drive their workloads
// through it.
func RunCampaign(name string, camp chaos.Campaign, rc ResilienceConfig) (*CampaignResult, error) {
	switch name {
	case "pingpong":
		return PingCampaign(camp, rc)
	case "barrier":
		return BarrierCampaign(camp, rc, 4)
	}
	rc = rc.withDefaults()
	c := &campaignRun{}
	run, setup, preRun := rc.Hooks(c.layers(camp, rc))
	c.run = run
	if rc.Setup != nil {
		attach := setup
		setup = func(m *machine.Machine, r *rt.Runtime) {
			attach(m, r)
			rc.Setup(m)
		}
	}
	var m *machine.Machine
	var cycles int64
	var err error
	switch name {
	case "lcs":
		r, e := lcs.Run(rc.Nodes, lcs.Params{LenA: 64, LenB: 128, Setup: setup, PreRun: preRun})
		m, cycles, err = r.M, r.Cycles, e
	case "radix":
		r, e := radix.Run(rc.Nodes, radix.Params{Keys: 512, Setup: setup, PreRun: preRun})
		m, cycles, err = r.M, r.Cycles, e
	case "nqueens":
		r, e := nqueens.Run(rc.Nodes, nqueens.Params{N: 6, SplitDepth: 2, Setup: setup, PreRun: preRun})
		m, cycles, err = r.M, r.Cycles, e
	case "tsp":
		r, e := tsp.Run(rc.Nodes, tsp.Params{Cities: 6, Setup: setup, PreRun: preRun})
		m, cycles, err = r.M, r.Cycles, e
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return c.collect(name, m, cycles, err, 0)
}

// PingCampaign runs the Figure 2 ping client from node 0 to the
// farthest node under the fault campaign. Value is the measured
// round-trip time in cycles when the run completes.
func PingCampaign(camp chaos.Campaign, rc ResilienceConfig) (*CampaignResult, error) {
	rc = rc.withDefaults()
	p := buildMicroProgram(buildPingClient)
	m, c, err := prepare(camp, rc, p)
	if err != nil {
		return nil, err
	}
	defer c.run.Stop()
	target := m.NumNodes() - 1
	if err := m.Nodes[0].Mem.Write(rt.AppBase, m.Net.NodeWord(target)); err != nil {
		return nil, err
	}
	rt.StartNode(m, p, 0, "main")
	if err := c.run.PreRun(); err != nil {
		return nil, err
	}
	runErr := m.RunWhile(func(m *machine.Machine) bool {
		w, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
		return !w.Truthy()
	}, rc.Budget)
	var rtt int64
	if runErr == nil {
		flag, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
		start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
		rtt = int64(flag.Data() - start.Data())
	}
	return c.collect("pingpong", m, m.Cycle(), runErr, rtt)
}

// BarrierCampaign runs inner back-to-back barriers on every node under
// the fault campaign. Value is cycles per barrier when the run
// completes.
func BarrierCampaign(camp chaos.Campaign, rc ResilienceConfig, inner int) (*CampaignResult, error) {
	rc = rc.withDefaults()
	if inner <= 0 {
		inner = 4
	}
	p := barrierBenchProgram(inner)
	m, c, err := prepare(camp, rc, p)
	if err != nil {
		return nil, err
	}
	defer c.run.Stop()
	rt.StartAll(m, p, "main")
	if err := c.run.PreRun(); err != nil {
		return nil, err
	}
	runErr := m.RunUntilHalt(0, rc.Budget)
	var per int64
	if runErr == nil {
		start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 1)
		end, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
		per = int64(end.Data()-start.Data()) / int64(inner)
	}
	return c.collect("barrier", m, m.Cycle(), runErr, per)
}
