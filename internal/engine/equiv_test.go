package engine_test

// The determinism contract: a machine whose node phase the engine steps
// on several goroutines must be byte-identical to the sequential
// reference loop, cycle for cycle. The tests here run the same workload
// sequentially (shards 0) and under a spread of shard counts, attaching
// the engine with engine.Attach, and compare cycle counts, workload
// results, network statistics, and the full machine state digest
// (machine.StateDigest folds every router buffer, memory word, queue,
// and counter). Any divergence — a node reading a neighbour's state
// mid-phase, an injection landing in the wrong order — shows up as a
// digest mismatch.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/network"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// shardCounts is the sweep required by the equivalence contract; 1 is
// the engine's no-op form, 7 deliberately mis-divides an 8-node mesh.
var shardCounts = []int{1, 2, 4, 7}

// runSum is a comparable summary of a campaign run.
type runSum struct {
	completed bool
	errStr    string
	cycles    int64
	value     int64
	trips     uint64
	net       network.Stats
	digest    uint64
}

func sumOf(r *bench.CampaignResult) runSum {
	s := runSum{
		completed: r.Completed,
		cycles:    r.Cycles,
		value:     r.Value,
		trips:     r.WatchdogTrips,
		net:       r.Net,
		digest:    r.StateDigest,
	}
	if r.Err != nil {
		s.errStr = r.Err.Error()
	}
	return s
}

// campaignEngine returns a bench.ResilienceConfig Setup hook attaching
// the engine at shards, and the stop to call once the campaign returns.
func campaignEngine(shards int) (setup func(*machine.Machine), stop func()) {
	var eng *engine.Engine
	return func(m *machine.Machine) { eng = engine.Attach(m, shards) }, func() { eng.Stop() }
}

// campaignEquiv runs one campaign workload sequentially and under every
// shard count and requires identical summaries.
func campaignEquiv(t *testing.T, name string, run func(shards int) (*bench.CampaignResult, error)) {
	t.Helper()
	ref, err := run(0)
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	want := sumOf(ref)
	for _, k := range shardCounts {
		res, err := run(k)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", name, k, err)
		}
		if got := sumOf(res); got != want {
			t.Errorf("%s shards=%d diverged:\n  seq: %+v\n  par: %+v", name, k, want, got)
		}
	}
}

// TestEquivPingChaos runs the ping campaign under three seeded random
// fault schedules with the full resilience stack on. This is both the
// micro-benchmark equivalence check and the chaos-campaign one: the
// injector's stalls, freezes, corruptions and the reliable-delivery
// retransmissions must all land on the same cycles under sharding.
func TestEquivPingChaos(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		camp := chaos.RandomCampaign(seed, 8, 4000, 4)
		run := func(shards int) (*bench.CampaignResult, error) {
			setup, stop := campaignEngine(shards)
			defer stop()
			return bench.PingCampaign(camp, bench.ResilienceConfig{
				Nodes:    8,
				Checksum: true,
				RTS:      true,
				Reliable: true,
				Watchdog: 50_000,
				Budget:   300_000,
				Setup:    setup,
			})
		}
		campaignEquiv(t, camp.Name+"/ping", run)
	}
}

// TestEquivBarrierChaos is the barrier analogue of TestEquivPingChaos.
func TestEquivBarrierChaos(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		camp := chaos.RandomCampaign(seed, 8, 4000, 3)
		run := func(shards int) (*bench.CampaignResult, error) {
			setup, stop := campaignEngine(shards)
			defer stop()
			return bench.BarrierCampaign(camp, bench.ResilienceConfig{
				Nodes:    8,
				Checksum: true,
				RTS:      true,
				Reliable: true,
				Watchdog: 50_000,
				Budget:   300_000,
				Setup:    setup,
			}, 2)
		}
		campaignEquiv(t, camp.Name+"/barrier", run)
	}
}

// TestEquivNoProgress wedges the ping: the checksum drops the
// corrupted request and nothing retransmits it, so the client suspends
// forever. The watchdog must trip on the same cycle with the same
// diagnostic under every shard count.
func TestEquivNoProgress(t *testing.T) {
	camp := chaos.Campaign{Name: "corrupt-wedge", Events: []chaos.Event{
		{Kind: chaos.CorruptMsg, Cycle: 1, Node: 0, Word: 1},
	}}
	run := func(shards int) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(shards)
		defer stop()
		return bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			Watchdog: 5_000,
			Budget:   200_000,
			Setup:    setup,
		})
	}
	ref, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	var np machine.ErrNoProgress
	if !errors.As(ref.Err, &np) {
		t.Fatalf("sequential run did not wedge: err=%v", ref.Err)
	}
	campaignEquiv(t, "corrupt-wedge/ping", run)
}

// appOut is a comparable summary of an application run.
type appOut struct {
	vals   [2]int64
	cycles int64
	digest uint64
}

// engineSetup returns an app Setup hook that attaches the parallel
// engine, plus the matching stop function (nil-safe when the hook
// never ran or the count degenerated to sequential).
func engineSetup(shards int) (func(*machine.Machine, *rt.Runtime), func()) {
	var eng *engine.Engine
	setup := func(m *machine.Machine, _ *rt.Runtime) { eng = engine.Attach(m, shards) }
	stop := func() { eng.Stop() }
	return setup, stop
}

// appEquiv runs one application sequentially and under every shard
// count and requires identical results and machine digests.
func appEquiv(t *testing.T, name string, run func(shards int) (appOut, error)) {
	t.Helper()
	want, err := run(0)
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	for _, k := range shardCounts {
		got, err := run(k)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", name, k, err)
		}
		if got != want {
			t.Errorf("%s shards=%d diverged:\n  seq: %+v\n  par: %+v", name, k, want, got)
		}
	}
}

func TestEquivLCS(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		appEquiv(t, "lcs", func(shards int) (appOut, error) {
			p := lcs.Params{LenA: 32, LenB: 48, Seed: seed}
			var stop func()
			if shards > 0 {
				p.Setup, stop = engineSetup(shards)
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
}

func TestEquivRadix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		appEquiv(t, "radix", func(shards int) (appOut, error) {
			p := radix.Params{Keys: 128, Bits: 12, Seed: seed}
			var stop func()
			if shards > 0 {
				p.Setup, stop = engineSetup(shards)
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
}

func TestEquivNQueens(t *testing.T) {
	// nqueens is deterministic with no seed parameter; vary the board
	// and split depth instead.
	cases := []nqueens.Params{
		{N: 5, SplitDepth: 1},
		{N: 5, SplitDepth: 2},
		{N: 6, SplitDepth: 2},
	}
	for _, base := range cases {
		base := base
		appEquiv(t, "nqueens", func(shards int) (appOut, error) {
			p := base
			var stop func()
			if shards > 0 {
				p.Setup, stop = engineSetup(shards)
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
}

// --- observability equivalence -------------------------------------
//
// The observability layer (internal/obs) is a pure tap: attaching it
// must leave machine.StateDigest() byte-identical to an unobserved run,
// and the exported timeline/metrics must themselves be byte-identical
// across shard counts. These tests run each workload unobserved and
// sequential as the reference, then observed — at the default sampling
// period and sampling every cycle — under the full shard sweep.

// obsEvery lists the sampling periods the equivalence sweep covers:
// the default period and the worst case of sampling every cycle.
func obsEvery() []int {
	if testing.Short() {
		return []int{64}
	}
	return []int{64, 1}
}

// obsFiles is the observed-run output captured for byte comparison.
type obsFiles struct {
	perfetto []byte
	metrics  []byte
}

func newObsOptions(t *testing.T, every int) (*obs.Options, func() obsFiles) {
	t.Helper()
	dir := t.TempDir()
	o := &obs.Options{
		PerfettoPath: filepath.Join(dir, "t.json"),
		MetricsPath:  filepath.Join(dir, "m.jsonl"),
		Every:        every,
	}
	read := func() obsFiles {
		pb, err := os.ReadFile(o.PerfettoPath)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(o.MetricsPath)
		if err != nil {
			t.Fatal(err)
		}
		return obsFiles{perfetto: pb, metrics: mb}
	}
	return o, read
}

// obsEquivCampaign checks one campaign workload: observed runs must
// match the unobserved sequential reference exactly, and the exported
// files must not depend on the shard count.
func obsEquivCampaign(t *testing.T, name string, run func(shards int, o *obs.Options) (*bench.CampaignResult, error)) {
	t.Helper()
	ref, err := run(0, nil)
	if err != nil {
		t.Fatalf("%s: unobserved sequential run: %v", name, err)
	}
	want := sumOf(ref)
	for _, every := range obsEvery() {
		var ref obsFiles
		for _, k := range append([]int{0}, shardCounts...) {
			o, read := newObsOptions(t, every)
			res, err := run(k, o)
			if err != nil {
				t.Fatalf("%s shards=%d every=%d: %v", name, k, every, err)
			}
			if got := sumOf(res); got != want {
				t.Errorf("%s shards=%d every=%d: observed run diverged from unobserved reference:\n  ref: %+v\n  got: %+v",
					name, k, every, want, got)
			}
			files := read()
			if ref.perfetto == nil {
				ref = files
				continue
			}
			if !bytes.Equal(files.perfetto, ref.perfetto) {
				t.Errorf("%s shards=%d every=%d: timeline bytes differ from sequential", name, k, every)
			}
			if !bytes.Equal(files.metrics, ref.metrics) {
				t.Errorf("%s shards=%d every=%d: metrics bytes differ from sequential", name, k, every)
			}
		}
	}
}

// TestEquivObservedPing exercises the full event surface — chaos
// faults, checksum drops, retransmissions — with the recorder on.
func TestEquivObservedPing(t *testing.T) {
	camp := chaos.RandomCampaign(1, 8, 4000, 4)
	obsEquivCampaign(t, "obs/ping", func(shards int, o *obs.Options) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(shards)
		defer stop()
		return bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sim.Config{Obs: o},
			Setup:    setup,
		})
	})
}

func TestEquivObservedBarrier(t *testing.T) {
	obsEquivCampaign(t, "obs/barrier", func(shards int, o *obs.Options) (*bench.CampaignResult, error) {
		setup, stop := campaignEngine(shards)
		defer stop()
		return bench.BarrierCampaign(chaos.Campaign{}, bench.ResilienceConfig{
			Nodes:  8,
			Budget: 300_000,
			Config: sim.Config{Obs: o},
			Setup:  setup,
		}, 2)
	})
}

// TestEquivObservedLCS covers the application path, where the recorder
// and engine attach through the app's Setup hook.
func TestEquivObservedLCS(t *testing.T) {
	base := lcs.Params{LenA: 32, LenB: 48, Seed: 1}
	refRun, err := lcs.Run(8, base)
	if err != nil {
		t.Fatal(err)
	}
	want := appOut{
		vals:   [2]int64{int64(refRun.Length), 0},
		cycles: refRun.Cycles,
		digest: refRun.M.StateDigest(),
	}
	for _, every := range obsEvery() {
		var ref obsFiles
		for _, k := range append([]int{0}, shardCounts...) {
			o, read := newObsOptions(t, every)
			var stopObs func() error
			var eng *engine.Engine
			p := base
			p.Setup = func(m *machine.Machine, _ *rt.Runtime) {
				stopObs = o.AttachTo(m)
				if k > 0 {
					eng = engine.Attach(m, k)
				}
			}
			r, err := lcs.Run(8, p)
			eng.Stop()
			if cerr := stopObs(); cerr != nil {
				t.Fatalf("lcs shards=%d every=%d: obs close: %v", k, every, cerr)
			}
			if err != nil {
				t.Fatalf("lcs shards=%d every=%d: %v", k, every, err)
			}
			got := appOut{
				vals:   [2]int64{int64(r.Length), 0},
				cycles: r.Cycles,
				digest: r.M.StateDigest(),
			}
			if got != want {
				t.Errorf("lcs shards=%d every=%d: observed run diverged:\n  ref: %+v\n  got: %+v",
					k, every, want, got)
			}
			files := read()
			if ref.perfetto == nil {
				ref = files
				continue
			}
			if !bytes.Equal(files.perfetto, ref.perfetto) {
				t.Errorf("lcs shards=%d every=%d: timeline bytes differ from sequential", k, every)
			}
			if !bytes.Equal(files.metrics, ref.metrics) {
				t.Errorf("lcs shards=%d every=%d: metrics bytes differ from sequential", k, every)
			}
		}
	}
}

func TestEquivTSP(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		appEquiv(t, "tsp", func(shards int) (appOut, error) {
			p := tsp.Params{Cities: 6, Seed: seed}
			var stop func()
			if shards > 0 {
				p.Setup, stop = engineSetup(shards)
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
}
