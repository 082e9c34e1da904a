// The repository's benchmark: six workloads, their end-to-end metrics
// and an outside-in traced breakdown by layer. See README.md.
//
//	bash benchmark/run.sh                    every workload, untraced then traced
//	bash benchmark/run.sh -workload exchange -seed 11 -seconds 15 -trace 0
//	bash benchmark/run.sh -spread 10         the repeatability table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadNames is the order workloads run in when none is named.
var workloadNames = []string{"exchange", "compute", "apps", "sparse", "serve-resident", "serve-churn"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measuring time of the timed phase
	trace    bool
	quick    bool
	outDir   string
	update   bool // rewrite golden.json from this run instead of checking against it
}

// The set-up is repeated, and setup_s is the median: until setUpSeconds
// have gone or maxSetUps are done, and minSetUps times at least. The
// quick scale sets up once.
const (
	setUpSeconds = 2
	minSetUps    = 3
	maxSetUps    = 50
)

// timeSetUps repeats setUp, the part of a run before its first timed
// request, and returns the median of its times. The run goes on with
// what the last call built.
func (cfg config) timeSetUps(setUp func() error) (float64, error) {
	least, most := minSetUps, maxSetUps
	if cfg.quick {
		least, most = 1, 1
	}
	var times sample
	start := time.Now()
	for n := 0; n < least || (n < most && time.Since(start).Seconds() < setUpSeconds); n++ {
		t := time.Now()
		if err := setUp(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times.median(), nil
}

// run measures one workload, untraced or traced, and checks its outputs.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o777); err != nil {
		return nil, err
	}
	res := newResult()
	var err error
	if w, ok := meshWorkloads(cfg.quick)[cfg.workload]; ok {
		if cfg.trace {
			err = traceMesh(cfg, w, res)
		} else {
			err = runMesh(cfg, w, res)
		}
	} else if w, ok := serveWorkloads(cfg.quick)[cfg.workload]; ok {
		if cfg.trace {
			err = traceServe(cfg, w, res)
		} else {
			err = runServe(cfg, w, res)
		}
	} else if cfg.workload == "apps" {
		if cfg.trace {
			err = traceAppsWorkload(cfg, res)
		} else {
			err = runAppsWorkload(cfg, res)
		}
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.update && cfg.seed != goldenSeed:
		err = fmt.Errorf("-update-golden needs -seed %d", goldenSeed)
	case cfg.update:
		err = updateGolden(cfg, res)
	case cfg.seed == goldenSeed:
		err = checkGolden(cfg, res)
	}
	return res, err
}

// units returns the metric table a run in this mode reports.
func units(trace bool) []unit {
	if trace {
		return perLayer
	}
	return endToEnd
}

// report prints every metric of the run's mode by name and unit, and as
// the last line the result object the driver reads.
func report(out io.Writer, cfg config, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	table := units(cfg.trace)
	metrics := make(map[string]value, len(table))
	for _, u := range table {
		v := res.metrics[u.name] // 0 for a layer this workload does not exercise
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", u.name, v)
		}
		metrics[u.name] = value{v, u.unit}
		fmt.Fprintf(out, "%-16s %-30s %16.6g %s\n", cfg.workload, u.name, v, u.unit)
	}
	if len(res.metrics) > len(metrics) {
		for name := range res.metrics {
			if _, ok := metrics[name]; !ok {
				return fmt.Errorf("metric %s is not in the table of its mode", name)
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// hostNote records what the numbers were taken on, and warns when the
// state directory is on tmpfs, where fsync is free and the commit cost
// the serve workloads exist to show disappears.
func hostNote(outDir string) {
	fs := fsType(outDir)
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d %s state-dir=%s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), outDir, fs)
	if fs == "tmpfs" {
		fmt.Fprintln(os.Stderr, "warning: the state directory is on tmpfs: fsync costs nothing there, so the serve workloads understate every commit")
	}
}

// fsType names the filesystem holding dir, from /proc/mounts; "unknown"
// where that cannot be read.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all six, untraced then traced)")
	seed := flag.Int64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measuring time of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	quick := flag.Bool("quick", false, "small sizes and 1/20 of the time, for the smoke test")
	outDir := flag.String("out", "benchmark/out", "directory for traces and the serve workloads' state")
	update := flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run (repo root, seed 11)")
	spread := flag.Int("spread", 0, "run every workload (or the one named) this many times, twice over, and print the repeatability table")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *quick {
		*seconds /= 20
	}
	if *spread > 0 {
		if err := spreadTable(*spread, *workload, *seed, *seconds, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	hostNote(*outDir)

	failed := false
	one := func(name string, traced bool) {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: traced, quick: *quick, outDir: *outDir, update: *update}
		res, err := run(cfg)
		if err == nil {
			err = report(os.Stdout, cfg, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		failed = failed || res.failed > 0
	}
	if *workload != "" {
		one(*workload, *trace == 1)
	} else {
		for _, name := range workloadNames {
			one(name, false)
			runtime.GC()
			one(name, true)
			runtime.GC()
		}
	}
	if failed {
		os.Exit(1)
	}
}
