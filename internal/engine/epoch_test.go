package engine_test

// The epoch-batching contract: the engine's scheduling policy — epoch
// batching (the default), the eager variant that engages the fleet for
// any multi-shard activity (a test hook, export_test.go), and the
// per-cycle protocol the engine runs on a reference-mode machine — is
// purely a wall-clock matter. Every policy must produce byte-identical
// machine states on every workload, under chaos, across shard counts;
// only the rendezvous count may move (internal/bench's
// TestRendezvousReduction pins its drop on idle-dominated workloads).
// Mid-epoch checkpoints must restore reference-exact: a resumed run
// lands on the same digest an uninterrupted one reaches.

import (
	"path/filepath"
	"strings"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/ckpt"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/trace"
)

// epCfg is one engine scheduling policy in the epoch sweep.
type epCfg struct {
	name      string
	reference bool // the oracle: literal loop + per-cycle rendezvous
	eager     bool // ParallelWork = 1 through the test hook
}

// epPolicies is the policy dimension: the oracle (every cycle engages
// the fleet), epoch batching with the inline threshold disabled (every
// multi-shard cycle pays a rendezvous, but single-shard cycles still
// run inline), and the default epoch policy.
var epPolicies = []epCfg{
	{name: "reference", reference: true},
	{name: "eager", eager: true},
	{name: "epoch"},
}

// apply arms the policy for engines attached until the returned restore
// runs, and returns the run configuration selecting it.
func (c epCfg) apply(shards int) (sim.Config, func()) {
	restore := func() {}
	if c.eager {
		restore = engine.SetParallelWork(1)
	}
	return sim.Config{Shards: shards, Reference: c.reference}, restore
}

// epochCampaignEquiv runs one campaign workload sequentially, then
// under every policy × shard count, requiring identical summaries.
func epochCampaignEquiv(t *testing.T, name string, run func(c epCfg, shards int) (*bench.CampaignResult, error)) {
	t.Helper()
	ref, err := run(epCfg{}, 0)
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	want := sumOf(ref)
	for _, c := range epPolicies {
		for _, k := range shardCounts {
			res, err := run(c, k)
			if err != nil {
				t.Fatalf("%s %s/shards-%d: %v", name, c.name, k, err)
			}
			if got := sumOf(res); got != want {
				t.Errorf("%s %s/shards-%d diverged:\n  seq: %+v\n  got: %+v",
					name, c.name, k, want, got)
			}
		}
	}
}

// TestEpochEquivPingChaos and ...BarrierChaos sweep the policy matrix
// with the chaos injector and the reliable-delivery runtime in the
// loop: freeze/thaw and retransmit actions unpark nodes out of band,
// which is exactly what the engine's WakeSeq invalidation must catch.
func TestEpochEquivPingChaos(t *testing.T) {
	camp := chaos.RandomCampaign(7, 8, 4000, 4)
	epochCampaignEquiv(t, camp.Name+"/ping", func(c epCfg, shards int) (*bench.CampaignResult, error) {
		sc, restore := c.apply(shards)
		defer restore()
		return bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sc,
		})
	})
}

func TestEpochEquivBarrierChaos(t *testing.T) {
	camp := chaos.RandomCampaign(8, 8, 4000, 3)
	epochCampaignEquiv(t, camp.Name+"/barrier", func(c epCfg, shards int) (*bench.CampaignResult, error) {
		sc, restore := c.apply(shards)
		defer restore()
		return bench.BarrierCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sc,
		}, 2)
	})
}

// epochSetup returns the app Setup/PreRun hooks running one policy,
// plus the stop function.
func epochSetup(c epCfg, shards int) (func(*machine.Machine, *rt.Runtime), func(*machine.Machine) error, func()) {
	sc, restore := c.apply(shards)
	run, setup, preRun := sc.Hooks(nil)
	return setup, preRun, func() { run.Stop(); restore() }
}

// epochAppEquiv runs one application through the policy × shards
// matrix against its sequential reference.
func epochAppEquiv(t *testing.T, name string, run func(c epCfg, shards int) (appOut, error)) {
	t.Helper()
	want, err := run(epCfg{}, 0)
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	for _, c := range epPolicies {
		for _, k := range shardCounts {
			got, err := run(c, k)
			if err != nil {
				t.Fatalf("%s %s/shards-%d: %v", name, c.name, k, err)
			}
			if got != want {
				t.Errorf("%s %s/shards-%d diverged:\n  seq: %+v\n  got: %+v",
					name, c.name, k, want, got)
			}
		}
	}
}

func TestEpochEquivLCS(t *testing.T) {
	epochAppEquiv(t, "lcs", func(c epCfg, shards int) (appOut, error) {
		p := lcs.Params{LenA: 32, LenB: 48, Seed: 3}
		var stop func()
		if shards > 0 {
			p.Setup, p.PreRun, stop = epochSetup(c, shards)
			defer stop()
		}
		r, err := lcs.Run(8, p)
		if err != nil {
			return appOut{}, err
		}
		return appOut{
			vals:   [2]int64{int64(r.Length), 0},
			cycles: r.Cycles,
			digest: r.M.StateDigest(),
		}, nil
	})
}

func TestEpochEquivRadix(t *testing.T) {
	// radix's scatter phase runs the machine-wide unpark path
	// (RunWhile re-entry) that the epoch cache must observe.
	epochAppEquiv(t, "radix", func(c epCfg, shards int) (appOut, error) {
		p := radix.Params{Keys: 128, Bits: 12, Seed: 3}
		var stop func()
		if shards > 0 {
			p.Setup, p.PreRun, stop = epochSetup(c, shards)
			defer stop()
		}
		r, err := radix.Run(8, p)
		if err != nil {
			return appOut{}, err
		}
		var sum int64
		for i, v := range r.Sorted {
			sum += int64(i+1) * int64(v)
		}
		return appOut{
			vals:   [2]int64{sum, int64(len(r.Sorted))},
			cycles: r.Cycles,
			digest: r.M.StateDigest(),
		}, nil
	})
}

func TestEpochEquivNQueens(t *testing.T) {
	epochAppEquiv(t, "nqueens", func(c epCfg, shards int) (appOut, error) {
		p := nqueens.Params{N: 5, SplitDepth: 2}
		var stop func()
		if shards > 0 {
			p.Setup, p.PreRun, stop = epochSetup(c, shards)
			defer stop()
		}
		r, err := nqueens.Run(8, p)
		if err != nil {
			return appOut{}, err
		}
		return appOut{
			vals:   [2]int64{int64(r.Solutions), int64(r.Tasks)},
			cycles: r.Cycles,
			digest: r.M.StateDigest(),
		}, nil
	})
}

func TestEpochEquivTSP(t *testing.T) {
	epochAppEquiv(t, "tsp", func(c epCfg, shards int) (appOut, error) {
		p := tsp.Params{Cities: 6, Seed: 3}
		var stop func()
		if shards > 0 {
			p.Setup, p.PreRun, stop = epochSetup(c, shards)
			defer stop()
		}
		r, err := tsp.Run(8, p)
		if err != nil {
			return appOut{}, err
		}
		return appOut{
			vals:   [2]int64{int64(r.Best), int64(r.Tasks)},
			cycles: r.Cycles,
			digest: r.M.StateDigest(),
		}, nil
	})
}

// TestMidEpochCkptResume proves checkpoints taken inside an epoch (the
// ping is idle-dominated, so under the default policy its whole run is
// a handful of epochs) restore reference-exact: the writing run, the
// resumed run, and the sequential reference all land on one summary.
func TestMidEpochCkptResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	run := func(shards int, path string, resume bool) (*bench.CampaignResult, error) {
		return bench.PingCampaign(chaos.Campaign{Name: "quiet"}, bench.ResilienceConfig{
			Nodes:    8,
			Watchdog: 50_000,
			Budget:   300_000,
			Config: sim.Config{
				Shards: shards,
				Ckpt:   ckpt.Flags{Path: path, Every: 64, Resume: resume},
			},
		})
	}
	ref, err := run(0, "", false)
	if err != nil {
		t.Fatal(err)
	}
	want := sumOf(ref)
	wrote, err := run(4, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumOf(wrote); got != want {
		t.Errorf("checkpoint-writing epoch run diverged:\n  seq: %+v\n  got: %+v", want, got)
	}
	resumed, err := run(4, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumOf(resumed); got != want {
		t.Errorf("resumed epoch run diverged:\n  seq: %+v\n  got: %+v", want, got)
	}
}

// TestWorkerPanicRecovery forces a panic on a worker goroutine's slab
// (the observer tap fires during the node phase) and requires the
// engine to re-raise it on the coordinator with the shard attributed,
// rather than deadlocking the barrier.
func TestWorkerPanicRecovery(t *testing.T) {
	m := machine.MustNew(machine.GridForNodes(8), haltProg())
	m.SetFastPath(false) // per-cycle protocol: every cycle releases the workers
	eng := engine.Attach(m, 4)
	defer eng.Stop()
	last := m.NumNodes() - 1 // in shard 3's slab, stepped by worker 3
	m.Nodes[last].StartBackground(0)
	m.Nodes[last].Watch = func(trace.Event) { panic("tap boom") }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was not re-raised on the coordinator")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "shard 3") || !strings.Contains(msg, "tap boom") {
			t.Errorf("re-raised panic %v does not attribute shard 3 / original message", r)
		}
	}()
	m.StepN(10)
	t.Fatal("StepN returned despite a worker panic")
}
