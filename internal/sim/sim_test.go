package sim_test

// The seed of the single equivalence harness (ROADMAP item 3): one
// table of run-configuration deltas × workloads, every cell compared
// against the zero configuration on cycle count and StateDigest. The
// older per-layer suites (engine, compiled, ckpt) still hold the chaos
// and six-workload sweeps; a new Config field earns its row here.

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/bench"
	"jmachine/internal/chaos"
	"jmachine/internal/ckpt"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

const nodes = 16

// workloads are run through bench.RunCampaign with an empty campaign;
// every is a checkpoint period well inside the run, so a periodic
// checkpoint always lands while work is in flight.
var workloads = []struct {
	name  string
	every int64
}{
	{"pingpong", 16},
	{"barrier", 256},
	{"lcs", 4096},
}

// invariantsEvery is the distance, in cycles, between two checks of a
// machine's derived bookkeeping (machine.CheckInvariants).
const invariantsEvery = 64

// checkInvariants registers the periodic check on m, so every cell runs
// under it, the zero configuration included. Its horizon is the next
// check, so skips and fused windows end before it. A nonzero period
// adds a no-op hook whose horizon comes every period cycles: an
// observer that does nothing must change nothing.
func checkInvariants(t *testing.T, period int64) func(m *machine.Machine) {
	return func(m *machine.Machine) {
		next := int64(invariantsEvery)
		m.AddCycleHook(func(c int64) {
			if c < next {
				return
			}
			next = c + invariantsEvery
			if err := m.CheckInvariants(); err != nil {
				next = machine.NoEvent
				t.Errorf("cycle %d: %v", c, err)
			}
		}, func(now int64) int64 { return max(next, now+1) })
		if period > 0 {
			m.AddCycleHook(func(int64) {}, func(now int64) int64 { return (now/period + 1) * period })
		}
	}
}

func run(t *testing.T, workload string, sc sim.Config, period int64) (cycles int64, digest uint64) {
	t.Helper()
	defer sim.SetAttachHook(checkInvariants(t, period))()
	res, err := bench.RunCampaign(workload, chaos.Campaign{}, bench.ResilienceConfig{Nodes: nodes, Config: sc})
	if err != nil {
		t.Fatalf("%s %+v: %v", workload, sc, err)
	}
	if !res.Completed {
		t.Fatalf("%s %+v: did not complete: %v", workload, sc, res.Err)
	}
	return res.Cycles, res.StateDigest
}

func TestConfigEquivalence(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			wantCycles, wantDigest := run(t, w.name, sim.Config{}, 0)
			if wantCycles <= w.every {
				t.Fatalf("run of %d cycles is too short for a mid-run checkpoint every %d", wantCycles, w.every)
			}
			dir := t.TempDir()
			ckptPath := filepath.Join(dir, "run.ckpt")
			// period, when set, adds a no-op hook with a periodic horizon.
			type delta struct {
				name   string
				sc     sim.Config
				period int64
			}
			deltas := []delta{
				{"reference", sim.Config{Reference: true}, 0},
				{"compiled", sim.Config{Compiled: true}, 0},
				{"obs", sim.Config{Obs: &obs.Options{
					PerfettoPath: filepath.Join(dir, "trace.json"),
					MetricsPath:  filepath.Join(dir, "metrics.jsonl"),
					Every:        64,
				}}, 0},
				// The periodic writer leaves the run's last mid-flight
				// checkpoint behind; the next row resumes from it.
				{"ckpt", sim.Config{Ckpt: ckpt.Flags{Path: ckptPath, Every: w.every}}, 0},
				{"ckpt-resume", sim.Config{Ckpt: ckpt.Flags{Path: ckptPath, Every: w.every, Resume: true}}, 0},
			}
			for _, p := range []int64{1, 7, 63, 64, 65} {
				deltas = append(deltas, delta{fmt.Sprintf("compiled+hook-%d", p), sim.Config{Compiled: true}, p})
			}
			for _, d := range deltas {
				cycles, digest := run(t, w.name, d.sc, d.period)
				if cycles != wantCycles || digest != wantDigest {
					t.Errorf("%s: cycles=%d digest=%#x, zero config has cycles=%d digest=%#x",
						d.name, cycles, digest, wantCycles, wantDigest)
				}
			}
		})
	}
}

func parse(t *testing.T, omit []string, args ...string) (sim.Config, error) {
	t.Helper()
	var sc sim.Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sc.Register(fs, omit...)
	return sc, fs.Parse(args)
}

func TestRegister(t *testing.T) {
	sc, err := parse(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (sim.Config{Ckpt: ckpt.Flags{Every: ckpt.DefaultEvery}}); sc != want {
		t.Errorf("defaults = %+v, want %+v", sc, want)
	}
	sc, err = parse(t, nil, "-reference", "-compiled",
		"-ckpt", "x.ckpt", "-ckpt-every", "128", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Config{Reference: true, Compiled: true,
		Ckpt: ckpt.Flags{Path: "x.ckpt", Every: 128, Resume: true}}
	if sc != want {
		t.Errorf("parsed = %+v, want %+v", sc, want)
	}
	// An omitted flag is not declared at all: a command never accepts a
	// knob it would ignore.
	if _, err := parse(t, []string{"compiled"}, "-compiled"); err == nil {
		t.Error("-compiled parsed although omitted")
	}
	if _, err := parse(t, []string{"compiled"}, "-reference"); err != nil {
		t.Errorf("-reference rejected although only -compiled was omitted: %v", err)
	}
	if _, err := parse(t, nil, "-shards", "2"); err == nil {
		t.Error("-shards parsed; the engine is not a run-configuration knob")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		sc   sim.Config
		ok   bool
	}{
		{"zero", sim.Config{}, true},
		{"resume without ckpt", sim.Config{Ckpt: ckpt.Flags{Resume: true}}, false},
		{"resume with ckpt", sim.Config{Ckpt: ckpt.Flags{Path: "x", Resume: true}}, true},
	} {
		if err := c.sc.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStopIdempotentNilSafe(t *testing.T) {
	var none *sim.Run
	if err := none.Stop(); err != nil {
		t.Errorf("nil Stop: %v", err)
	}
	// A Hooks run whose Setup never ran (the app failed first).
	unset, _, _ := sim.Config{}.Hooks(nil)
	if err := unset.Stop(); err != nil {
		t.Errorf("unset Stop: %v", err)
	}
	b := asm.NewBuilder()
	b.Label("main").Halt()
	rt.BuildLib(b)
	p := b.MustAssemble()
	m := machine.MustNew(machine.GridForNodes(8), p)
	o := &obs.Options{MetricsPath: filepath.Join(t.TempDir(), "m.jsonl")}
	r, err := sim.Config{Obs: o}.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(3)
	for i := 0; i < 2; i++ {
		if err := r.Stop(); err != nil {
			t.Errorf("Stop #%d: %v", i+1, err)
		}
	}
}
