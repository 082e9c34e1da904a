package compiled_test

// The compiled tier's differential contract: a machine with the
// compiled handler tier installed must be byte-identical to the pure
// interpreter — same StateDigest at every observation point, same
// workload results, same cycle counts, same observability trace bytes —
// across the full execution matrix: {reference, fast-path} stepping ×
// shard counts {1, 2, 4, 7} × chaos campaigns. The interpreter run is
// always the oracle; any closure that mis-times, mis-charges, or
// mutates on a bail path shows up as a digest mismatch.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/compiled"
	"jmachine/internal/engine"
	"jmachine/internal/machine"
	"jmachine/internal/network"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// shardCounts is the sweep the contract requires; 7 mis-divides the
// 8-node mesh on purpose.
func shardCounts(t *testing.T) []int {
	if testing.Short() {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 7}
}

// tierCase is one point of the execution matrix.
type tierCase struct {
	compiled  bool
	reference bool
	shards    int
}

// matrix returns the interpreter oracle point followed by every
// compiled-tier point to compare against it.
func matrix(t *testing.T) []tierCase {
	cases := []tierCase{{compiled: false}}
	for _, ref := range []bool{false, true} {
		for _, k := range append([]int{0}, shardCounts(t)...) {
			cases = append(cases, tierCase{compiled: true, reference: ref, shards: k})
		}
	}
	return cases
}

// appOut is a comparable summary of an application run.
type appOut struct {
	vals   [2]int64
	cycles int64
	digest uint64
}

// tierSetup returns an app Setup hook installing the compiled tier and
// the engine per tc, plus the stop function.
func tierSetup(t *testing.T, tc tierCase) (func(*machine.Machine, *rt.Runtime), func()) {
	t.Helper()
	var eng *engine.Engine
	setup := func(m *machine.Machine, _ *rt.Runtime) {
		if tc.reference {
			m.SetFastPath(false)
		}
		if tc.compiled {
			if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
				t.Fatalf("compiled.Attach: %v", err)
			}
		}
		if tc.shards > 1 {
			eng = engine.Attach(m, tc.shards)
		}
	}
	return setup, func() { eng.Stop() }
}

// campaignEngine returns a bench.ResilienceConfig Setup hook attaching
// the engine at shards, as benchmark/mesh.go attaches it, and the stop
// to call once the campaign returns.
func campaignEngine(shards int) (setup func(*machine.Machine), stop func()) {
	var eng *engine.Engine
	return func(m *machine.Machine) { eng = engine.Attach(m, shards) }, func() { eng.Stop() }
}

// appEquiv runs one application across the matrix and requires every
// compiled point to match the interpreter oracle exactly.
func appEquiv(t *testing.T, name string, run func(tc tierCase) (appOut, error)) {
	t.Helper()
	var want appOut
	for i, tc := range matrix(t) {
		got, err := run(tc)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, tc, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s %+v diverged from interpreter:\n  oracle:   %+v\n  compiled: %+v", name, tc, want, got)
		}
	}
}

func TestEquivLCS(t *testing.T) {
	appEquiv(t, "lcs", func(tc tierCase) (appOut, error) {
		p := lcs.Params{LenA: 32, LenB: 48, Seed: 1}
		setup, stop := tierSetup(t, tc)
		p.Setup = setup
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

func TestEquivRadix(t *testing.T) {
	appEquiv(t, "radix", func(tc tierCase) (appOut, error) {
		p := radix.Params{Keys: 128, Bits: 12, Seed: 2}
		setup, stop := tierSetup(t, tc)
		p.Setup = setup
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

func TestEquivNQueens(t *testing.T) {
	appEquiv(t, "nqueens", func(tc tierCase) (appOut, error) {
		p := nqueens.Params{N: 5, SplitDepth: 2}
		setup, stop := tierSetup(t, tc)
		p.Setup = setup
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

func TestEquivTSP(t *testing.T) {
	appEquiv(t, "tsp", func(tc tierCase) (appOut, error) {
		p := tsp.Params{Cities: 6, Seed: 3}
		setup, stop := tierSetup(t, tc)
		p.Setup = setup
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

// --- micro-benchmark campaigns under chaos ---------------------------

// campSum is a comparable summary of a campaign run.
type campSum struct {
	completed bool
	errStr    string
	cycles    int64
	value     int64
	trips     uint64
	net       network.Stats
	digest    uint64
}

func campSumOf(r *bench.CampaignResult) campSum {
	s := campSum{
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

func campaignEquiv(t *testing.T, name string, run func(tc tierCase) (*bench.CampaignResult, error)) {
	t.Helper()
	var want campSum
	for i, tc := range matrix(t) {
		res, err := run(tc)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, tc, err)
		}
		got := campSumOf(res)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s %+v diverged from interpreter:\n  oracle:   %+v\n  compiled: %+v", name, tc, want, got)
		}
	}
}

// TestEquivPingChaos runs the ping micro-benchmark under seeded random
// fault schedules with the full resilience stack: chaos stalls,
// freezes, corruptions, checksum drops and retransmissions must land on
// the same cycles with the compiled tier on.
func TestEquivPingChaos(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		camp := chaos.RandomCampaign(seed, 8, 4000, 4)
		campaignEquiv(t, camp.Name+"/ping", func(tc tierCase) (*bench.CampaignResult, error) {
			setup, stop := campaignEngine(tc.shards)
			defer stop()
			return bench.PingCampaign(camp, bench.ResilienceConfig{
				Nodes:    8,
				Checksum: true,
				RTS:      true,
				Reliable: true,
				Watchdog: 50_000,
				Budget:   300_000,
				Config:   sim.Config{Reference: tc.reference, Compiled: tc.compiled},
				Setup:    setup,
			})
		})
	}
}

// TestEquivBarrierChaos is the barrier analogue of TestEquivPingChaos.
func TestEquivBarrierChaos(t *testing.T) {
	seeds := []uint64{4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		camp := chaos.RandomCampaign(seed, 8, 4000, 3)
		campaignEquiv(t, camp.Name+"/barrier", func(tc tierCase) (*bench.CampaignResult, error) {
			setup, stop := campaignEngine(tc.shards)
			defer stop()
			return bench.BarrierCampaign(camp, bench.ResilienceConfig{
				Nodes:    8,
				Checksum: true,
				RTS:      true,
				Reliable: true,
				Watchdog: 50_000,
				Budget:   300_000,
				Config:   sim.Config{Reference: tc.reference, Compiled: tc.compiled},
				Setup:    setup,
			}, 2)
		})
	}
}

// --- observability byte-equality -------------------------------------
//
// The recorder's hook declares its next sample as its horizon, which
// bounds fused windows there, so this sweep proves fused compiled
// execution leaves the exported timeline and metrics streams
// byte-identical to the interpreter's: no sample observes mid-window
// state.

type obsFiles struct {
	perfetto []byte
	metrics  []byte
}

func newObsOptions(t *testing.T) (*obs.Options, func() obsFiles) {
	t.Helper()
	dir := t.TempDir()
	o := &obs.Options{
		PerfettoPath: filepath.Join(dir, "t.json"),
		MetricsPath:  filepath.Join(dir, "m.jsonl"),
		Every:        64,
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

// TestEquivObservedPing compares observation bytes between interpreter
// and compiled runs over the chaos ping campaign.
func TestEquivObservedPing(t *testing.T) {
	camp := chaos.RandomCampaign(1, 8, 4000, 4)
	run := func(tc tierCase, o *obs.Options) campSum {
		setup, stop := campaignEngine(tc.shards)
		defer stop()
		res, err := bench.PingCampaign(camp, bench.ResilienceConfig{
			Nodes:    8,
			Checksum: true,
			RTS:      true,
			Reliable: true,
			Watchdog: 50_000,
			Budget:   300_000,
			Config:   sim.Config{Reference: tc.reference, Compiled: tc.compiled, Obs: o},
			Setup:    setup,
		})
		if err != nil {
			t.Fatalf("obs/ping %+v: %v", tc, err)
		}
		return campSumOf(res)
	}
	refOpts, refRead := newObsOptions(t)
	want := run(tierCase{}, refOpts)
	ref := refRead()
	for _, tc := range matrix(t)[1:] {
		o, read := newObsOptions(t)
		if got := run(tc, o); got != want {
			t.Errorf("obs/ping %+v: summary diverged:\n  oracle:   %+v\n  compiled: %+v", tc, want, got)
		}
		files := read()
		if !bytes.Equal(files.perfetto, ref.perfetto) {
			t.Errorf("obs/ping %+v: timeline bytes differ from interpreter", tc)
		}
		if !bytes.Equal(files.metrics, ref.metrics) {
			t.Errorf("obs/ping %+v: metrics bytes differ from interpreter", tc)
		}
	}
}

// TestEquivObservedLCS covers the application path with the recorder
// attached through the Setup hook.
func TestEquivObservedLCS(t *testing.T) {
	base := lcs.Params{LenA: 32, LenB: 48, Seed: 1}
	run := func(tc tierCase, o *obs.Options) appOut {
		var eng *engine.Engine
		stopObs := func() error { return nil }
		p := base
		p.Setup = func(m *machine.Machine, _ *rt.Runtime) {
			if tc.reference {
				m.SetFastPath(false)
			}
			if tc.compiled {
				if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
					t.Fatalf("compiled.Attach: %v", err)
				}
			}
			stopObs = o.AttachTo(m)
			if tc.shards > 1 {
				eng = engine.Attach(m, tc.shards)
			}
		}
		r, err := lcs.Run(8, p)
		eng.Stop()
		if cerr := stopObs(); cerr != nil {
			t.Fatalf("obs close: %v", cerr)
		}
		if err != nil {
			t.Fatalf("obs/lcs %+v: %v", tc, err)
		}
		return appOut{
			vals:   [2]int64{int64(r.Length), 0},
			cycles: r.Cycles,
			digest: r.M.StateDigest(),
		}
	}
	refOpts, refRead := newObsOptions(t)
	want := run(tierCase{}, refOpts)
	ref := refRead()
	for _, tc := range matrix(t)[1:] {
		o, read := newObsOptions(t)
		if got := run(tc, o); got != want {
			t.Errorf("obs/lcs %+v: summary diverged:\n  oracle:   %+v\n  compiled: %+v", tc, want, got)
		}
		files := read()
		if !bytes.Equal(files.perfetto, ref.perfetto) {
			t.Errorf("obs/lcs %+v: timeline bytes differ from interpreter", tc)
		}
		if !bytes.Equal(files.metrics, ref.metrics) {
			t.Errorf("obs/lcs %+v: metrics bytes differ from interpreter", tc)
		}
	}
}
