package bench

// Mesh-scaling and rendezvous probes for the epoch-batched engine.
//
// MeshScalingProbe instantiates token-ring machines at 2K–16K nodes —
// sizes the per-cycle snapshot/step/commit protocol could not step at
// a usable rate and the dense per-node allocation could not afford —
// and reports cycles/sec, heap bytes per node, and the engine's
// rendezvous count. RendezvousProbe isolates the batching win itself:
// the rendezvous count of an epoch-batched run against the oracle's,
// which engages the fleet on every cycle. The counts are pure functions
// of the simulated state and the shard count, so unlike the wall-clock
// rates they are host-independent and belong in the committed
// BENCH_engine.json.

import (
	"fmt"
	"runtime"
	"time"

	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// RendezvousResult compares the per-cycle and epoch protocols on one
// workload.
type RendezvousResult struct {
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	Cycles   int64  `json:"cycles"`
	// PerCycle and Epoch are the worker-fleet engagement counts under
	// the two protocols. The per-cycle protocol is what the engine runs
	// on a reference-mode machine, which skips nothing and releases the
	// fleet every cycle, so PerCycle equals Cycles by construction and
	// is not measured.
	PerCycle int64 `json:"rendezvous_per_cycle"`
	Epoch    int64 `json:"rendezvous_epoch"`
	// Reduction is PerCycle/Epoch (∞ encoded as 0 Epoch; callers
	// treat Epoch == 0 as an unbounded win).
	Reduction float64 `json:"reduction,omitempty"`
	Digest    uint64  `json:"state_digest"`
	// DigestsMatch is always true: the oracle-vs-epoch digest equality
	// it used to record is the equivalence suites' job (sim_test.go,
	// engine/epoch_test.go). Kept so BENCH_engine.json keeps its shape.
	DigestsMatch bool `json:"digests_match"`
}

// runIdleRendezvous steps the sharded token ring and returns the
// rendezvous count and final digest.
func runIdleRendezvous(nodes, shards int, tokens int, cycles int64) (int64, uint64, error) {
	m, run, err := newIdleRing(sim.Config{Shards: shards}, nodes, tokens)
	if err != nil {
		return 0, 0, err
	}
	defer stopRun(run)
	m.StepN(cycles)
	if err := m.FatalErr(); err != nil {
		return 0, 0, err
	}
	return run.Engine.Rendezvous(), m.StateDigest(), nil
}

// runPingRendezvous runs the sharded Figure 2 ping (node 0 to the
// farthest node, round trip) for a fixed cycle count and returns the
// rendezvous count and final digest. A single message
// in flight is the maximally-localized workload: at most one shard has
// network work at any instant, so epoch batching should touch the
// barrier almost never.
func runPingRendezvous(nodes, shards int, cycles int64) (int64, uint64, error) {
	p := buildMicroProgram(buildPingClient)
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		return 0, 0, err
	}
	run, err := sim.Config{Shards: shards}.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		return 0, 0, err
	}
	defer stopRun(run)
	if err := m.Nodes[0].Mem.Write(rt.AppBase, m.Net.NodeWord(m.NumNodes()-1)); err != nil {
		return 0, 0, err
	}
	rt.StartNode(m, p, 0, "main")
	m.StepN(cycles)
	if err := m.FatalErr(); err != nil {
		return 0, 0, err
	}
	return run.Engine.Rendezvous(), m.StateDigest(), nil
}

// RendezvousProbe measures the epoch protocol's rendezvous reduction
// on the idle token ring and the pingpong workload at a fixed shard
// count. Entirely deterministic: no wall-clock measurement is taken.
func RendezvousProbe(nodes, shards int, tokens int, cycles int64) ([]RendezvousResult, error) {
	if shards < 2 {
		return nil, fmt.Errorf("rendezvous probe: need shards >= 2, got %d", shards)
	}
	type workload struct {
		name string
		run  func() (int64, uint64, error)
	}
	workloads := []workload{
		{"idle-ring", func() (int64, uint64, error) {
			return runIdleRendezvous(nodes, shards, tokens, cycles)
		}},
		{"pingpong", func() (int64, uint64, error) {
			return runPingRendezvous(nodes, shards, cycles)
		}},
	}
	var out []RendezvousResult
	for _, w := range workloads {
		epCount, digest, err := w.run()
		if err != nil {
			return nil, fmt.Errorf("rendezvous probe %s: %w", w.name, err)
		}
		r := RendezvousResult{
			Workload:     w.name,
			Nodes:        nodes,
			Shards:       shards,
			Cycles:       cycles,
			PerCycle:     cycles,
			Epoch:        epCount,
			Digest:       digest,
			DigestsMatch: true,
		}
		if epCount > 0 {
			r.Reduction = float64(cycles) / float64(epCount)
		}
		out = append(out, r)
	}
	return out, nil
}

// MeshScalingResult is one (mesh size, shard count) scaling row.
type MeshScalingResult struct {
	Nodes        int     `json:"nodes"`
	Shards       int     `json:"shards"`
	Cycles       int64   `json:"cycles"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Rendezvous   int64   `json:"rendezvous"`
	// HeapBytesPerNode is the host heap growth from instantiating the
	// machine (GC-settled before and after), divided by the node
	// count: the compact-state footprint. Host-dependent only through
	// the allocator; the dominant term is the simulator's own data.
	HeapBytesPerNode int64 `json:"heap_bytes_per_node"`
	// MemImageBytesPerNode is the per-node simulated-memory footprint
	// (page table plus materialized pages, mem.Memory.HeapBytes) —
	// fully deterministic, the direct measure of lazy paging.
	MemImageBytesPerNode int64  `json:"mem_image_bytes_per_node"`
	Digest               uint64 `json:"state_digest"`
	// Checked records that a sequential reference run of the same
	// workload reproduced Digest exactly.
	Checked bool `json:"digest_checked"`
}

// meshRun builds a token ring of the given size, steps it, and reports
// the digest plus (when timed) the stepping rate. Returns heap growth
// from instantiation when measureHeap is set.
func meshRun(nodes, shards int, tokens int, cycles int64, measureHeap bool) (MeshScalingResult, error) {
	var before runtime.MemStats
	if measureHeap {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	m, run, err := newIdleRing(sim.Config{Shards: shards}, nodes, tokens)
	if err != nil {
		return MeshScalingResult{}, err
	}
	defer stopRun(run)
	res := MeshScalingResult{Nodes: nodes, Shards: shards, Cycles: cycles}
	if measureHeap {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			res.HeapBytesPerNode = int64(after.HeapAlloc-before.HeapAlloc) / int64(nodes)
		}
	}
	var image int64
	for _, n := range m.Nodes {
		image += n.Mem.HeapBytes()
	}
	res.MemImageBytesPerNode = image / int64(nodes)
	start := time.Now() //jm:wallclock mesh-scaling probe: wall time is reported, never fed back into the simulation
	m.StepN(cycles)
	res.WallSeconds = time.Since(start).Seconds() //jm:wallclock mesh-scaling probe
	if err := m.FatalErr(); err != nil {
		return MeshScalingResult{}, fmt.Errorf("mesh probe (nodes=%d shards=%d): %w", nodes, shards, err)
	}
	if res.WallSeconds > 0 {
		res.CyclesPerSec = float64(cycles) / res.WallSeconds
	}
	res.Rendezvous = run.Engine.Rendezvous()
	res.Digest = m.StateDigest()
	return res, nil
}

// MeshScalingProbe runs the token ring at large mesh sizes (the
// 2K/4K/16K sweep behind BENCH_engine.json's mesh_scaling section).
// check re-runs the workload on the sequential reference loop and
// requires digest equality — at 16K nodes that roughly doubles the
// probe's runtime, so CI's smoke checks a mid-size mesh only.
func MeshScalingProbe(nodes, shards int, tokens int, cycles int64, check bool) (MeshScalingResult, error) {
	res, err := meshRun(nodes, shards, tokens, cycles, true)
	if err != nil {
		return MeshScalingResult{}, err
	}
	if check {
		ref, err := meshRun(nodes, 0, tokens, cycles, false)
		if err != nil {
			return MeshScalingResult{}, fmt.Errorf("mesh probe reference run: %w", err)
		}
		if ref.Digest != res.Digest {
			return MeshScalingResult{}, fmt.Errorf("mesh probe (nodes=%d shards=%d): digest %#x != reference %#x",
				nodes, shards, res.Digest, ref.Digest)
		}
		res.Checked = true
	}
	return res, nil
}
