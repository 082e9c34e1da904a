package ckpt_test

// The checkpoint equivalence matrix: every workload × shard count ×
// stepping mode, with an active chaos campaign, must satisfy the
// restore contract — a run interrupted at a checkpoint and resumed in
// a fresh machine ends with a final StateDigest byte-identical to the
// uninterrupted run's.
//
// The micro-benchmarks (pingpong, barrier) are driven through the
// bench campaigns' Ckpt/Resume plumbing: a first run with a tiny cycle
// budget plays the crashed process (it dies with a periodic checkpoint
// on disk), a second run resumes the file to completion, and a third
// run never checkpoints at all. The applications capture mid-run from
// a one-shot cycle hook instead, since their budgets are internal.

import (
	"fmt"
	"os"
	"path/filepath"
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
)

const equivNodes = 8

func equivCampaign() chaos.Campaign {
	return chaos.RandomCampaign(11, equivNodes, 50_000, 4)
}

// appCase adapts one application to the equivalence runner. snapAt is
// a mid-run capture cycle (the seeded runs take snapAt*2 cycles or
// more, so the checkpoint always lands while work is in flight).
type appCase struct {
	name   string
	snapAt int64
	run    func(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) (*machine.Machine, error)
}

func appCases() []appCase {
	return []appCase{
		{"lcs", 15_000, func(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) (*machine.Machine, error) {
			res, err := lcs.Run(equivNodes, lcs.Params{LenA: 64, LenB: 128, Setup: setup, PreRun: preRun})
			return res.M, err
		}},
		{"radix", 20_000, func(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) (*machine.Machine, error) {
			res, err := radix.Run(equivNodes, radix.Params{Keys: 512, Setup: setup, PreRun: preRun})
			return res.M, err
		}},
		{"nqueens", 1_500, func(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) (*machine.Machine, error) {
			res, err := nqueens.Run(equivNodes, nqueens.Params{N: 6, SplitDepth: 2, Setup: setup, PreRun: preRun})
			return res.M, err
		}},
		{"tsp", 4_000, func(setup func(*machine.Machine, *rt.Runtime), preRun func(*machine.Machine) error) (*machine.Machine, error) {
			res, err := tsp.Run(equivNodes, tsp.Params{Cities: 6, Setup: setup, PreRun: preRun})
			return res.M, err
		}},
	}
}

// runApp executes one application under chaos with the full resilience
// stack. With resume false it writes a checkpoint from a one-shot hook
// at w.snapAt and runs to completion (the uninterrupted reference);
// with resume true it restores path after start-up and continues.
func runApp(t *testing.T, w appCase, shards int, reference bool, path string, resume bool) uint64 {
	t.Helper()
	var m *machine.Machine
	var eng *engine.Engine
	var savers []ckpt.Saver
	var capErr error
	setup := func(mm *machine.Machine, r *rt.Runtime) {
		m = mm
		mm.Net.SetChecksum(true)
		mm.Net.SetReturnToSender(true)
		mm.Net.SetMaxReturns(32)
		mm.SetWatchdog(100_000)
		if reference {
			mm.SetFastPath(false)
		}
		rel := rt.EnableReliable(r, rt.ReliableConfig{})
		inj := chaos.Attach(mm, equivCampaign())
		savers = []ckpt.Saver{r, rel, inj}
		if !resume {
			fired := false
			mm.AddCycleHook(func(c int64) {
				if fired || c < w.snapAt {
					return
				}
				fired = true
				if err := ckpt.WriteFile(path, ckpt.Capture(mm, savers...)); err != nil && capErr == nil {
					capErr = err
				}
			}, func(now int64) int64 {
				if fired || now >= w.snapAt {
					return machine.NoEvent
				}
				return w.snapAt
			})
		}
		if shards > 1 {
			eng = engine.Attach(mm, shards)
		}
	}
	preRun := func(mm *machine.Machine) error {
		if !resume {
			return nil
		}
		if err := ckpt.RestoreFile(path, mm, savers...); err != nil {
			return err
		}
		// The sets the step loops iterate are rebuilt, not restored.
		return mm.CheckInvariants()
	}
	resM, err := w.run(setup, preRun)
	eng.Stop()
	if err != nil {
		t.Fatalf("%s (shards=%d resume=%v): %v", w.name, shards, resume, err)
	}
	if capErr != nil {
		t.Fatalf("%s: checkpoint write: %v", w.name, capErr)
	}
	if resM != nil {
		m = resM
	}
	if !resume {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: capture hook at cycle %d never fired: %v", w.name, w.snapAt, err)
		}
	}
	return m.StateDigest()
}

// microCase drives pingpong or barrier through the bench campaigns.
type microCase struct {
	name        string
	every       int64 // checkpoint period for the truncated run
	truncBudget int64 // cycle budget that kills the run mid-flight
}

func microCases() []microCase {
	// pingpong completes in ~60 cycles, barrier in ~1600 under this
	// campaign; the budgets stop each run after at least one periodic
	// checkpoint and before completion.
	return []microCase{
		{"pingpong", 16, 30},
		{"barrier", 256, 900},
	}
}

// runMicro runs one micro-benchmark campaign. phase selects the run's
// role: "truncated" (checkpointing, dies on a tiny budget), "resume"
// (restores the file, runs to completion), "clean" (no checkpointing).
func runMicro(t *testing.T, w microCase, shards int, reference bool, path, phase string) uint64 {
	t.Helper()
	rc := bench.ResilienceConfig{
		Nodes:      equivNodes,
		Checksum:   true,
		RTS:        true,
		MaxReturns: 32,
		Watchdog:   100_000,
		Reliable:   true,
		Config:     sim.Config{Shards: shards, Reference: reference},
	}
	switch phase {
	case "truncated":
		rc.Ckpt = ckpt.Flags{Path: path, Every: w.every}
		rc.Budget = w.truncBudget
	case "resume":
		rc.Ckpt = ckpt.Flags{Path: path, Every: w.every, Resume: true}
	}
	var res *bench.CampaignResult
	var err error
	if w.name == "pingpong" {
		res, err = bench.PingCampaign(equivCampaign(), rc)
	} else {
		res, err = bench.BarrierCampaign(equivCampaign(), rc, 4)
	}
	if err != nil {
		t.Fatalf("%s (%s, shards=%d): %v", w.name, phase, shards, err)
	}
	if phase != "truncated" && !res.Completed {
		t.Fatalf("%s (%s, shards=%d): did not complete: %v", w.name, phase, shards, res.Err)
	}
	return res.StateDigest
}

// TestCheckpointEquivalence is the acceptance matrix: six workloads ×
// shard counts {1,2,4,7} × {reference, fast} stepping, chaos active,
// interrupted-and-resumed digest == uninterrupted digest everywhere.
func TestCheckpointEquivalence(t *testing.T) {
	shardCounts := []int{1, 2, 4, 7}
	modes := []bool{false, true} // reference?
	if testing.Short() {
		shardCounts = []int{1, 4}
		modes = []bool{false}
	}
	for _, w := range microCases() {
		for _, shards := range shardCounts {
			for _, reference := range modes {
				name := fmt.Sprintf("%s/shards=%d/ref=%v", w.name, shards, reference)
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "micro.ckpt")
					runMicro(t, w, shards, reference, path, "truncated")
					resumed := runMicro(t, w, shards, reference, path, "resume")
					clean := runMicro(t, w, shards, reference, "", "clean")
					if resumed != clean {
						t.Errorf("resumed digest %016x != uninterrupted %016x", resumed, clean)
					}
				})
			}
		}
	}
	for _, w := range appCases() {
		for _, shards := range shardCounts {
			for _, reference := range modes {
				name := fmt.Sprintf("%s/shards=%d/ref=%v", w.name, shards, reference)
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "app.ckpt")
					clean := runApp(t, w, shards, reference, path, false)
					resumed := runApp(t, w, shards, reference, path, true)
					if resumed != clean {
						t.Errorf("resumed digest %016x != uninterrupted %016x", resumed, clean)
					}
				})
			}
		}
	}
}

// TestCheckpointCrossShardResume proves a checkpoint is portable
// across stepping configurations: a file captured under the sequential
// reference loop resumes under the sharded fast path (and vice versa)
// with the same final digest.
func TestCheckpointCrossShardResume(t *testing.T) {
	w := appCases()[0] // lcs
	path := filepath.Join(t.TempDir(), "cross.ckpt")
	clean := runApp(t, w, 1, true, path, false)   // capture: sequential reference
	resumed := runApp(t, w, 4, false, path, true) // resume: sharded fast path
	if resumed != clean {
		t.Errorf("cross-config resume digest %016x != uninterrupted %016x", resumed, clean)
	}
}
