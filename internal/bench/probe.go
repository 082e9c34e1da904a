package bench

// EngineProbe is the wall-clock harness behind scripts/bench.sh: the
// Figure 3 loaded-exchange workload (every node firing 8-word messages
// at random partners) stepped for a fixed cycle count, sequentially or
// sharded, with wall time and a state digest recorded. Digest equality
// across shard counts re-proves the determinism contract at benchmark
// scale; the cycles/sec ratio is the engine's speedup.

import (
	"fmt"
	"math/rand"
	"time"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

// EngineProbeResult is one (machine size, shard count) measurement.
type EngineProbeResult struct {
	Nodes        int     `json:"nodes"`
	Shards       int     `json:"shards"`             // 0 = sequential reference
	Compiled     bool    `json:"compiled,omitempty"` // compiled handler tier installed
	Cycles       int64   `json:"cycles"`             // measured cycles (after warm-up)
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Digest       uint64  `json:"state_digest"` // machine state at the end
	// Rendezvous counts worker-fleet engagements over the whole run
	// (warm-up included). Unlike the wall-clock fields it is a pure
	// function of the simulated state and the engine configuration —
	// host-independent, so it is comparable across machines and
	// regressions in epoch batching show up as exact count changes.
	// Zero when sequential.
	Rendezvous int64 `json:"rendezvous"`
}

// EngineProbe steps the loaded-exchange workload under sc for measure
// cycles after warm warm-up cycles and reports the wall-clock rate.
// Runs with the same (nodes, warm, measure) end in byte-identical
// machine states whatever the configuration, so their digests must
// match. With sc.Ckpt.Resume the run restores the checkpoint first and
// steps only the cycles that remain: StepN boundaries are
// synchronization points, so splitting the run across processes is
// digest-neutral, and the reported rate covers the measured cycles this
// process actually stepped.
func EngineProbe(nodes int, sc sim.Config, warm, measure int64) (EngineProbeResult, error) {
	shards := sc.Shards
	const words = 8
	const idleIters = 16
	p := buildFig3Program(words, true, 1<<30)
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		return EngineProbeResult{}, err
	}
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	run, err := sc.Attach(m, r)
	if err != nil {
		return EngineProbeResult{}, err
	}
	defer stopRun(run)
	rnd := rand.New(rand.NewSource(3))
	period := 4*idleIters + 120
	for _, n := range m.Nodes {
		n.Mem.Write(rt.AppBase+fig3OffMask, word.Int(fig3TableSize-1))
		n.Mem.Write(rt.AppBase+fig3OffIdle, word.Int(int32(idleIters)))
		n.Mem.Write(rt.AppBase+fig3OffSkew, word.Int(int32(rnd.Intn(period/2+1))))
		for i := 0; i < fig3TableSize; i++ {
			n.Mem.Write(fig3TableBase+int32(i), m.Net.NodeWord(rnd.Intn(m.NumNodes())))
		}
	}
	rt.StartAll(m, p, "main")
	if err := run.PreRun(); err != nil {
		return EngineProbeResult{}, err
	}
	total := warm + measure
	warmLeft := warm - m.Cycle()
	if warmLeft > 0 {
		m.StepN(warmLeft)
	}
	measured := total - m.Cycle()
	if measured < 0 {
		measured = 0
	}
	start := time.Now() //jm:wallclock host-rate probe: wall time is reported, never fed back into the simulation
	m.StepN(measured)
	wall := time.Since(start).Seconds() //jm:wallclock host-rate probe
	if err := m.FatalErr(); err != nil {
		return EngineProbeResult{}, fmt.Errorf("probe (shards=%d): %w", shards, err)
	}
	rate := 0.0
	if wall > 0 {
		rate = float64(measured) / wall
	}
	return EngineProbeResult{
		Nodes:        nodes,
		Shards:       shards,
		Compiled:     sc.Compiled,
		Cycles:       measured,
		WallSeconds:  wall,
		CyclesPerSec: rate,
		Digest:       m.StateDigest(),
		Rendezvous:   run.Engine.Rendezvous(),
	}, nil
}
