package engine_test

// The scheduling-policy contract: how the engine steps a machine is
// purely a wall-clock matter. The policy dimension is the machine's
// stepping mode — the reference loop (every node, every cycle) or the
// fast path (parked nodes, skipped quiet spans) — and every mode must
// produce byte-identical machine states to the sequential fast-path
// run on every workload, under chaos, across shard counts. The
// TestEpochEquiv names date from the epoch-batching scheduler these
// tests first swept; their seeds differ from fastpath_equiv_test.go's,
// so the two files cover distinct fault schedules and inputs.

import (
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/sim"
)

// policies is the stepping-mode dimension of the sweep.
var policies = []struct {
	name      string
	reference bool
}{
	{"reference", true},
	{"fast", false},
}

// policySweep yields every policy × shard count as a sweep entry; the
// sequential fast-path run (the zero fpConfig) is the baseline.
func policySweep() []fpConfig {
	var out []fpConfig
	for _, p := range policies {
		for _, k := range shardCounts {
			out = append(out, fpConfig{name: p.name, reference: p.reference, shards: k})
		}
	}
	return out
}

// policyCampaignEquiv runs one campaign workload sequentially, then
// under every policy × shard count, requiring identical summaries.
func policyCampaignEquiv(t *testing.T, name string, run func(c fpConfig) (*bench.CampaignResult, error)) {
	t.Helper()
	ref, err := run(fpConfig{})
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	want := sumOf(ref)
	for _, c := range policySweep() {
		res, err := run(c)
		if err != nil {
			t.Fatalf("%s %s/shards-%d: %v", name, c.name, c.shards, err)
		}
		if got := sumOf(res); got != want {
			t.Errorf("%s %s/shards-%d diverged:\n  seq: %+v\n  got: %+v",
				name, c.name, c.shards, want, got)
		}
	}
}

// policyAppEquiv runs one application through the policy × shards
// matrix against its sequential run.
func policyAppEquiv(t *testing.T, name string, run func(c fpConfig) (appOut, error)) {
	t.Helper()
	want, err := run(fpConfig{})
	if err != nil {
		t.Fatalf("%s: sequential run: %v", name, err)
	}
	for _, c := range policySweep() {
		got, err := run(c)
		if err != nil {
			t.Fatalf("%s %s/shards-%d: %v", name, c.name, c.shards, err)
		}
		if got != want {
			t.Errorf("%s %s/shards-%d diverged:\n  seq: %+v\n  got: %+v",
				name, c.name, c.shards, want, got)
		}
	}
}

// TestEpochEquivPingChaos and ...BarrierChaos sweep the policy matrix
// with the chaos injector and the reliable-delivery runtime in the
// loop: freeze/thaw and retransmit actions unpark nodes out of band,
// and the engine's node slabs must see them on the same cycles.
func TestEpochEquivPingChaos(t *testing.T) {
	camp := chaos.RandomCampaign(7, 8, 4000, 4)
	policyCampaignEquiv(t, camp.Name+"/ping", func(c fpConfig) (*bench.CampaignResult, error) {
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

func TestEpochEquivBarrierChaos(t *testing.T) {
	camp := chaos.RandomCampaign(8, 8, 4000, 3)
	policyCampaignEquiv(t, camp.Name+"/barrier", func(c fpConfig) (*bench.CampaignResult, error) {
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

func TestEpochEquivLCS(t *testing.T) {
	policyAppEquiv(t, "lcs", func(c fpConfig) (appOut, error) {
		p := lcs.Params{LenA: 32, LenB: 48, Seed: 3}
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

func TestEpochEquivRadix(t *testing.T) {
	// radix's scatter phase runs the machine-wide unpark path
	// (RunWhile re-entry) that the node slabs must observe.
	policyAppEquiv(t, "radix", func(c fpConfig) (appOut, error) {
		p := radix.Params{Keys: 128, Bits: 12, Seed: 3}
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

func TestEpochEquivNQueens(t *testing.T) {
	policyAppEquiv(t, "nqueens", func(c fpConfig) (appOut, error) {
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

func TestEpochEquivTSP(t *testing.T) {
	policyAppEquiv(t, "tsp", func(c fpConfig) (appOut, error) {
		p := tsp.Params{Cities: 6, Seed: 3}
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
