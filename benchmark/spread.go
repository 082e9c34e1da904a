package main

// The repeatability harness: the acceptance rule for the benchmark
// itself. Every workload is run count times, each with another seed,
// in a process of its own, and the whole set is run twice. An
// end-to-end metric passes when, in both sets, the distance between
// its quartiles stays within its bound as a share of the median, and
// the second set's median is not worse than the first's by more than
// the bound. setup_s is held to the second rule only.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declared              `json:"end_to_end"`
	PerLayer  []declared              `json:"per_layer"`
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// quartiles are the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) computes them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	cut := func(i int) float64 {
		j, delta := i*(len(data)+1)/4, i*(len(data)+1)%4
		if j < 1 {
			j = 1
		} else if j > len(data)-1 {
			j = len(data) - 1
		}
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// oneRun runs one workload in a child process and returns its metrics.
func oneRun(self, workload string, seed int64, seconds float64, outDir string) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: outputs not correct", workload, seed)
	}
	metrics := map[string]float64{}
	for name, v := range res.Metrics {
		metrics[name] = v.Value
	}
	return metrics, nil
}

func spreadTable(count int, only string, seed int64, seconds float64, outDir string) error {
	if count < 2 {
		return fmt.Errorf("-spread needs at least 2 runs")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repo root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	fmt.Println("| workload | metric | median, set 1 | spread, set 1 | median, set 2 | spread, set 2 | set 2 worse by | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	ok := true
	for _, w := range bf.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < count; i++ {
				metrics, err := oneRun(self, w.Name, seed+int64(i), seconds, outDir)
				if err != nil {
					return err
				}
				for name, v := range metrics {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			var med, spread [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][m.Name])
				med[s], spread[s] = q2, (q3-q1)/q2
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound)) {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("| %s | %s | %.5g | %.1f%% | %.5g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, med[0], 100*spread[0], med[1], 100*spread[1], 100*worse, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("a metric is outside its bound")
	}
	return nil
}
