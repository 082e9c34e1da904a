package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// smokeRun runs one workload at the quick scale and checks what it
// printed against what BENCHMARK.json declares for that mode.
func smokeRun(t *testing.T, workload string, seed int64, trace bool, want []declared) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.05, trace: trace, quick: true, outDir: t.TempDir()}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if res.failed != 0 || res.attempted < 1 {
		t.Errorf("%s seed %d trace %v: %d of %d checks failed", workload, seed, trace, res.failed, res.attempted)
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("%s: result object lacks a key: %s", workload, lines[len(lines)-1])
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json declares %d", workload, trace, len(last.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := last.Metrics[w.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s trace %v: metric %s not printed", workload, trace, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s printed in %q, declared in %q", workload, w.Name, m.Unit, w.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, w.Name, *m.Value)
		case !trace && *m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v, must never be 0", workload, w.Name, *m.Value)
		}
	}
	if trace && *last.Metrics["trace.accounted_share"].Value < 0.98 {
		t.Errorf("%s: child spans and self time account for %.3f of the slices' wall", workload, *last.Metrics["trace.accounted_share"].Value)
	}
}

// TestSmoke runs every workload at the quick scale, untraced and
// traced at the golden seed, and traced at a second seed, where the
// goldens are skipped and every cross-pass, Reference and replay check
// still runs: the generators own the seed, not the program.
func TestSmoke(t *testing.T) {
	d, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]declared{}, d.EndToEnd...), d.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("BENCHMARK.json: metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloadNames))
	}
	for _, w := range d.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			smokeRun(t, w.Name, goldenSeed, false, d.EndToEnd)
			smokeRun(t, w.Name, goldenSeed, true, d.PerLayer)
			smokeRun(t, w.Name, goldenSeed+1, true, d.PerLayer)
		})
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
