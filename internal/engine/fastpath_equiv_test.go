package engine_test

// The event-horizon contract: a machine allowed to park idle nodes and
// bulk-skip quiescent spans (the default) must be byte-identical to the
// every-node-every-cycle reference loop, sequentially and under every
// shard count — same cycle counts, same workload results, same
// statistics, same machine digest. This file sweeps all six workloads
// (the chaos-campaign ping and barrier plus the four applications)
// through the full reference × fast × shards matrix required by the
// acceptance criteria; equiv_test.go's obs helpers prove the recorder
// pins the machine without disturbing the digest.

import (
	"bytes"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// fpConfig is one run mode in the reference-vs-fast sweep.
type fpConfig struct {
	name      string
	reference bool // force the reference loop (fast path off)
	shards    int  // 0 = sequential, >1 = on the engine
}

// fpSweep is the acceptance matrix: the reference loop sequential and
// sharded, then the event-horizon fast path sequential and across the
// engine's shard sweep (7 deliberately mis-divides an 8-node mesh).
var fpSweep = []fpConfig{
	{"ref/seq", true, 0},
	{"ref/shards-4", true, 4},
	{"fast/seq", false, 0},
	{"fast/shards-1", false, 1},
	{"fast/shards-2", false, 2},
	{"fast/shards-4", false, 4},
	{"fast/shards-7", false, 7},
}

// fastPathCampaignEquiv runs one campaign workload through the sweep,
// with the first (reference, sequential) entry as the baseline.
func fastPathCampaignEquiv(t *testing.T, name string, run func(c fpConfig) (*bench.CampaignResult, error)) {
	t.Helper()
	ref, err := run(fpSweep[0])
	if err != nil {
		t.Fatalf("%s %s: %v", name, fpSweep[0].name, err)
	}
	want := sumOf(ref)
	for _, c := range fpSweep[1:] {
		res, err := run(c)
		if err != nil {
			t.Fatalf("%s %s: %v", name, c.name, err)
		}
		if got := sumOf(res); got != want {
			t.Errorf("%s %s diverged from the reference loop:\n  ref: %+v\n  got: %+v",
				name, c.name, want, got)
		}
	}
}

// TestFastPathEquivPing and ...Barrier put the chaos injector in the
// loop: its stalls, freezes, and corruptions must land on the same
// cycles whether the idle spans between them are stepped or skipped
// (the injector publishes its next event through a horizon hook).
func TestFastPathEquivPing(t *testing.T) {
	camp := chaos.RandomCampaign(2, 8, 4000, 4)
	fastPathCampaignEquiv(t, camp.Name+"/ping", func(c fpConfig) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(c.shards)
		defer stop()
		return bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sim.Config{Reference: c.reference},
			Setup:    setup,
		})
	})
}

func TestFastPathEquivBarrier(t *testing.T) {
	camp := chaos.RandomCampaign(5, 8, 4000, 3)
	fastPathCampaignEquiv(t, camp.Name+"/barrier", func(c fpConfig) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(c.shards)
		defer stop()
		return bench.BarrierCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sim.Config{Reference: c.reference},
			Setup:    setup,
		}, 2)
	})
}

// fastPathSetup returns an app Setup hook applying one sweep entry,
// plus the matching stop function (nil-safe).
func fastPathSetup(c fpConfig) (func(*machine.Machine, *rt.Runtime), func()) {
	var eng *engine.Engine
	setup := func(m *machine.Machine, _ *rt.Runtime) {
		if c.reference {
			m.SetFastPath(false)
		}
		if c.shards > 1 {
			eng = engine.Attach(m, c.shards)
		}
	}
	return setup, func() { eng.Stop() }
}

// fastPathAppEquiv runs one application through the sweep.
func fastPathAppEquiv(t *testing.T, name string, run func(c fpConfig) (appOut, error)) {
	t.Helper()
	want, err := run(fpSweep[0])
	if err != nil {
		t.Fatalf("%s %s: %v", name, fpSweep[0].name, err)
	}
	for _, c := range fpSweep[1:] {
		got, err := run(c)
		if err != nil {
			t.Fatalf("%s %s: %v", name, c.name, err)
		}
		if got != want {
			t.Errorf("%s %s diverged from the reference loop:\n  ref: %+v\n  got: %+v",
				name, c.name, want, got)
		}
	}
}

func TestFastPathEquivLCS(t *testing.T) {
	fastPathAppEquiv(t, "lcs", func(c fpConfig) (appOut, error) {
		p := lcs.Params{LenA: 32, LenB: 48, Seed: 2}
		var stop func()
		p.Setup, stop = fastPathSetup(c)
		defer stop()
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

func TestFastPathEquivRadix(t *testing.T) {
	fastPathAppEquiv(t, "radix", func(c fpConfig) (appOut, error) {
		p := radix.Params{Keys: 128, Bits: 12, Seed: 2}
		var stop func()
		p.Setup, stop = fastPathSetup(c)
		defer stop()
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

func TestFastPathEquivNQueens(t *testing.T) {
	fastPathAppEquiv(t, "nqueens", func(c fpConfig) (appOut, error) {
		p := nqueens.Params{N: 5, SplitDepth: 2}
		var stop func()
		p.Setup, stop = fastPathSetup(c)
		defer stop()
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

func TestFastPathEquivTSP(t *testing.T) {
	fastPathAppEquiv(t, "tsp", func(c fpConfig) (appOut, error) {
		p := tsp.Params{Cities: 6, Seed: 2}
		var stop func()
		p.Setup, stop = fastPathSetup(c)
		defer stop()
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

// TestFastPathEquivObservedPing attaches the recorder on top of the
// sweep. The recorder registers a legacy per-cycle hook, which pins the
// machine to single-cycle mode — so observed fast-path runs must
// degrade to the reference loop and the exported files must come out
// byte-identical in every mode.
func TestFastPathEquivObservedPing(t *testing.T) {
	camp := chaos.RandomCampaign(3, 8, 4000, 4)
	run := func(c fpConfig, o *obs.Options) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(c.shards)
		defer stop()
		return bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sim.Config{Reference: c.reference, Obs: o},
			Setup:    setup,
		})
	}
	ref, err := run(fpSweep[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sumOf(ref)
	var refFiles obsFiles
	for _, c := range []fpConfig{fpSweep[0], {"fast/seq", false, 0}, {"fast/shards-4", false, 4}} {
		o, read := newObsOptions(t, 64)
		res, err := run(c, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sumOf(res); got != want {
			t.Errorf("%s: observed run diverged:\n  ref: %+v\n  got: %+v", c.name, want, got)
		}
		files := read()
		if refFiles.perfetto == nil {
			refFiles = files
			continue
		}
		if !bytes.Equal(files.perfetto, refFiles.perfetto) {
			t.Errorf("%s: timeline bytes differ from reference", c.name)
		}
		if !bytes.Equal(files.metrics, refFiles.metrics) {
			t.Errorf("%s: metrics bytes differ from reference", c.name)
		}
	}
}
