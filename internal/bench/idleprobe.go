package bench

// IdleProbe is the sync-heavy wall-clock harness: a token ring over
// cfut suspends. Every node blocks reading a presence-tagged slot; the
// holder of a token re-arms its slot, forwards the token to its ring
// successor's synchronizing-write handler, and suspends again. At any
// instant all but a handful of nodes are idle — the Figure 6 shape for
// synchronization-bound programs — which is exactly the case the
// event-horizon fast path exists for: the scheduler parks the waiting
// nodes and only touches the token holders. The reference loop steps
// all N nodes every cycle regardless, so the cycles/sec ratio between
// the two modes is the fast path's speedup.

import (
	"fmt"
	"time"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

const (
	idleOffSlot  = 0 // cfut slot the token lands in
	idleOffCount = 1 // visits this node has forwarded
	idleOffNext  = 2 // router word of the ring successor
)

// buildIdleRingProgram assembles the token-ring loop.
func buildIdleRingProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, rt.AppBase).
		Label("main.loop").
		Move(isa.R0, asm.Mem(isa.A0, idleOffSlot)). // suspends: slot is cfut
		// Re-arm the slot for the token's next visit.
		MoveI(isa.R1, 0).
		Wtag(isa.R1, asm.Imm(int32(word.TagCfut))).
		St(isa.R1, asm.Mem(isa.A0, idleOffSlot)).
		// Count the visit.
		Move(isa.R2, asm.Mem(isa.A0, idleOffCount)).
		Add(isa.R2, asm.Imm(1)).
		St(isa.R2, asm.Mem(isa.A0, idleOffCount)).
		// Forward the token to the successor's writesync handler.
		Move(isa.R1, asm.Mem(isa.A0, idleOffNext)).
		Send(asm.R(isa.R1)).
		MoveHdr(isa.R1, "pass", 2).
		Send2E(isa.R1, asm.R(isa.R0)).
		Br("main.loop")
	b.Label("pass").
		MoveI(isa.A0, rt.AppBase).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Bsr(isa.R3, rt.LWriteSync).
		Suspend()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// newIdleRing builds and seeds a token-ring machine run under sc. The
// caller must stopRun the returned run.
func newIdleRing(sc sim.Config, nodes, tokens int) (*machine.Machine, *sim.Run, error) {
	if tokens < 1 {
		tokens = 1
	}
	p := buildIdleRingProgram()
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		return nil, nil, err
	}
	run, err := sc.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		return nil, nil, err
	}
	for i, n := range m.Nodes {
		err := n.Mem.FillCfut(rt.AppBase+idleOffSlot, 1)
		if err == nil {
			err = n.Mem.Write(rt.AppBase+idleOffNext, m.Net.NodeWord((i+1)%nodes))
		}
		if err != nil {
			stopRun(run)
			return nil, nil, err
		}
	}
	rt.StartAll(m, p, "main")
	for k := 0; k < tokens; k++ {
		seed := m.Nodes[k*nodes/tokens]
		seed.Queues[0].Push(word.MsgHeader(p.Entry("pass"), 2))
		seed.Queues[0].Push(word.Int(1))
	}
	if err := run.PreRun(); err != nil {
		stopRun(run)
		return nil, nil, err
	}
	return m, run, nil
}

// IdleProbe runs the token ring under sc for measure cycles after warm
// warm-up cycles. tokens is the number of tokens seeded evenly around
// the ring (1 = maximally idle). Runs with the same (nodes, tokens,
// warm, measure) must end in byte-identical machine states whatever
// the configuration.
func IdleProbe(nodes int, sc sim.Config, tokens int, warm, measure int64) (EngineProbeResult, error) {
	shards := sc.Shards
	m, run, err := newIdleRing(sc, nodes, tokens)
	if err != nil {
		return EngineProbeResult{}, err
	}
	defer stopRun(run)
	m.StepN(warm)
	start := time.Now() //jm:wallclock host-rate probe: wall time is reported, never fed back into the simulation
	m.StepN(measure)
	wall := time.Since(start).Seconds() //jm:wallclock host-rate probe
	if err := m.FatalErr(); err != nil {
		return EngineProbeResult{}, fmt.Errorf("idle probe (shards=%d): %w", shards, err)
	}
	var visits int64
	for _, n := range m.Nodes {
		w, _ := n.Mem.Read(rt.AppBase + idleOffCount)
		visits += int64(w.Data())
	}
	if visits == 0 {
		return EngineProbeResult{}, fmt.Errorf("idle probe (shards=%d): token never moved", shards)
	}
	return EngineProbeResult{
		Nodes:        nodes,
		Shards:       shards,
		Cycles:       measure,
		WallSeconds:  wall,
		CyclesPerSec: float64(measure) / wall,
		Digest:       m.StateDigest(),
		Rendezvous:   run.Engine.Rendezvous(),
	}, nil
}
