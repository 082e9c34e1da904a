// jm-bench measures the simulator's wall-clock behaviour on two
// 512-node workloads and writes the results as JSON (the committed
// BENCH_engine.json):
//
//   - the Figure 3 loaded exchange (every node firing 8-word messages),
//     stepped sequentially and under each shard count — the parallel
//     engine's benchmark; and
//   - the token-ring idle probe (all but a few nodes suspended on cfut
//     slots), run under the reference loop and the event-horizon fast
//     path — the active-set scheduler's benchmark; and
//   - the roofline probe (both fig3 shapes, interpreted and compiled),
//     which classifies each shape as dispatch-bound or memory-bound by
//     how much of its host time the compiled handler tier removes —
//     the compiled tier's benchmark; and
//   - the fusion probe (fig3 shapes plus the pingpong client, each run
//     with per-handler send-distance certificates and again under the
//     old whole-image NoSend licensing), which reports fused-instruction
//     share, window counts, and the window-end histogram — the effect
//     certifier's benchmark; and
//   - the rendezvous probe (token ring and pingpong: epoch-batched
//     rendezvous count against the oracle's one per cycle) plus the
//     mesh-scaling probe (token rings at 2K–16K nodes) — the epoch
//     engine's benchmarks. Rendezvous counts are host-independent.
//
// Each run of the same workload must end in a byte-identical machine
// state, so the file doubles as a large-scale determinism check. Host
// parallelism (host_cores, gomaxprocs) is recorded because the engine
// numbers are meaningless without it; the fast-path ratio is
// host-independent. Re-running against an existing output file appends
// that file's summary to a history list instead of erasing it, so the
// committed JSON accumulates one entry per PR.
//
// Usage:
//
//	jm-bench [-nodes 512] [-warm 2000] [-measure 20000]
//	         [-shards 0,2,4,8] [-force-shards] [-idle-tokens 4]
//	         [-reference] [-compiled] [-ckpt file] [-ckpt-every N] [-resume]
//	         [-roofline] [-fusion] [-mesh 2048,4096,16384] [-mesh-cycles 2000]
//	         [-mesh-smoke] [-label name]
//	         [-gobench file] [-out BENCH_engine.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"jmachine/internal/bench"
	"jmachine/internal/sim"
)

// goBenchLine is one parsed `go test -bench` result row.
type goBenchLine struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// idleProbeRow is one idle-probe measurement plus its stepping mode.
type idleProbeRow struct {
	bench.EngineProbeResult
	Mode string `json:"mode"` // "reference" or "fast"
}

// historyEntry is the one-line summary of a past jm-bench run, carried
// forward each time the output file is regenerated.
type historyEntry struct {
	Label            string  `json:"label,omitempty"`
	HostCores        int     `json:"host_cores"`
	GoMaxProcs       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Fig3SeqRate      float64 `json:"fig3_seq_cycles_per_sec"`
	IdleRefRate      float64 `json:"idle_reference_cycles_per_sec,omitempty"`
	IdleFastRate     float64 `json:"idle_fast_cycles_per_sec,omitempty"`
	FastPathSpeedup  float64 `json:"fastpath_speedup_idle,omitempty"`
	BestShardSpeedup float64 `json:"best_shard_speedup,omitempty"`
	// CompiledSpeedup is the roofline probe's compiled/interpreted rate
	// ratio on the dispatch-bound fig3-compute shape.
	CompiledSpeedup float64 `json:"compiled_speedup_fig3_compute,omitempty"`
	// FusionShareGain is the fused-instruction share the per-handler
	// certificates add over the whole-image baseline on the resident
	// shape (send-free loop, sending image) — the certificates' win.
	FusionShareGain float64 `json:"fusion_share_gain_fig3_resident,omitempty"`
	// Rendezvous reductions (per-cycle count / epoch count) from the
	// rendezvous probe — host-independent, so history entries are
	// comparable across machines.
	IdleRendezvousReduction float64 `json:"idle_rendezvous_reduction,omitempty"`
	PingRendezvousReduction float64 `json:"ping_rendezvous_reduction,omitempty"`
	// MeshBytesPerNode is the largest mesh row's heap footprint.
	MeshNodes        int   `json:"mesh_nodes,omitempty"`
	MeshBytesPerNode int64 `json:"mesh_heap_bytes_per_node,omitempty"`
}

// report is the BENCH_engine.json schema.
type report struct {
	Workload   string   `json:"workload"`
	Label      string   `json:"label,omitempty"`
	HostCores  int      `json:"host_cores"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Notes      []string `json:"notes"`
	// Probe is the Figure 3 loaded exchange across shard counts; the
	// sequential rows run with the fast path on (its live-node overhead
	// on a saturated machine is part of the default configuration).
	Probe []bench.EngineProbeResult `json:"probe"`
	// IdleProbe is the token ring under reference and fast stepping.
	IdleProbe []idleProbeRow `json:"idle_probe,omitempty"`
	// Speedup compares sharded fig3 rows to the sequential one.
	Speedup map[string]float64 `json:"speedup_vs_sequential"`
	// FastPathSpeedup is the idle probe's fast/reference rate ratio on
	// the sequential loop: the event-horizon win, host-independent.
	FastPathSpeedup float64 `json:"fastpath_speedup_idle,omitempty"`
	// Roofline classifies both fig3 shapes as dispatch- or memory-bound
	// by the compiled tier's speedup; its digests_match covers the
	// compiled-vs-interpreted pairs.
	Roofline *bench.RooflineResult `json:"roofline,omitempty"`
	// Fusion compares the per-handler send-distance certificates against
	// the old whole-image NoSend licensing on each shape: fused share,
	// window counts, and the per-reason window-end histogram.
	Fusion *bench.FusionResult `json:"fusion,omitempty"`
	// Rendezvous compares the per-cycle and epoch-batched engine
	// protocols (counts host-independent).
	Rendezvous []bench.RendezvousResult `json:"rendezvous_probe,omitempty"`
	// MeshScaling is the large-mesh token-ring sweep.
	MeshScaling  []bench.MeshScalingResult `json:"mesh_scaling,omitempty"`
	DigestsMatch bool                      `json:"digests_match"`
	GoBench      []goBenchLine             `json:"go_bench,omitempty"`
	History      []historyEntry            `json:"history,omitempty"`
}

// summarize folds a report into its history line.
func (r *report) summarize() historyEntry {
	h := historyEntry{
		Label:           r.Label,
		HostCores:       r.HostCores,
		GoMaxProcs:      r.GoMaxProcs,
		GoVersion:       r.GoVersion,
		FastPathSpeedup: r.FastPathSpeedup,
	}
	for _, p := range r.Probe {
		if p.Shards <= 1 {
			h.Fig3SeqRate = p.CyclesPerSec
			break
		}
	}
	for _, p := range r.IdleProbe {
		if p.Shards > 1 {
			continue
		}
		switch p.Mode {
		case "reference":
			h.IdleRefRate = p.CyclesPerSec
		case "fast":
			h.IdleFastRate = p.CyclesPerSec
		}
	}
	for _, s := range r.Speedup {
		if s > h.BestShardSpeedup {
			h.BestShardSpeedup = s
		}
	}
	if r.Roofline != nil {
		h.CompiledSpeedup = r.Roofline.Speedup["fig3-compute"]
	}
	if r.Fusion != nil {
		h.FusionShareGain = r.Fusion.ShareGain["fig3-resident"]
	}
	for _, rv := range r.Rendezvous {
		switch rv.Workload {
		case "idle-ring":
			h.IdleRendezvousReduction = rv.Reduction
		case "pingpong":
			h.PingRendezvousReduction = rv.Reduction
		}
	}
	for _, ms := range r.MeshScaling {
		if ms.Nodes > h.MeshNodes {
			h.MeshNodes = ms.Nodes
			h.MeshBytesPerNode = ms.HeapBytesPerNode
		}
	}
	return h
}

func main() {
	nodes := flag.Int("nodes", 512, "probe machine size")
	warm := flag.Int64("warm", 2000, "warm-up cycles before timing")
	measure := flag.Int64("measure", 20000, "measured cycles")
	shardList := flag.String("shards", "0,2,4,8", "comma-separated shard counts (0 = sequential)")
	idleTokens := flag.Int("idle-tokens", 4, "tokens circulating in the idle probe ring")
	roofline := flag.Bool("roofline", true, "run the compiled-tier roofline probe (both fig3 shapes, both tiers)")
	fusion := flag.Bool("fusion", true, "run the fusion-coverage probe (per-handler certificates vs whole-image licensing)")
	forceShards := flag.Bool("force-shards", false, "keep shard counts above the host's core count (skipped by default: oversubscribed rows measure scheduler thrash, not the engine)")
	rendezvous := flag.Bool("rendezvous", true, "run the rendezvous-reduction probe (epoch protocol vs one per cycle; deterministic)")
	meshList := flag.String("mesh", "2048,4096,16384", "comma-separated mesh sizes for the scaling probe (empty = off)")
	meshCycles := flag.Int64("mesh-cycles", 2000, "cycles per mesh-scaling row")
	meshShards := flag.Int("mesh-shards", 4, "shard count for the mesh-scaling rows")
	meshCheckMax := flag.Int("mesh-check-max", 4096, "digest-check mesh rows up to this size against a sequential reference run")
	meshSmoke := flag.Bool("mesh-smoke", false, "CI smoke: run only the rendezvous probe and one digest-checked 4096-node mesh row, print, and exit")
	label := flag.String("label", "", "history label for this run (e.g. a PR or commit name)")
	gobench := flag.String("gobench", "", "`go test -bench` output file to merge")
	out := flag.String("out", "BENCH_engine.json", "output path (- for stdout)")
	// The run configuration applies to the fig3 probe rows; -shards is
	// this command's list of rows, and a -ckpt file is suffixed
	// .s<shards> per row.
	var sc sim.Config
	sc.Register(flag.CommandLine, "shards")
	flag.Parse()
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	if *meshSmoke {
		runMeshSmoke(*meshCycles)
		return
	}

	var counts []int
	for _, f := range strings.Split(*shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -shards entry %q: %v", f, err)
		}
		if n > runtime.NumCPU() && !*forceShards {
			fmt.Fprintf(os.Stderr, "skipping shards=%d: host has %d cores (use -force-shards to keep oversubscribed rows)\n",
				n, runtime.NumCPU())
			continue
		}
		counts = append(counts, n)
	}

	rep := report{
		Workload:   fmt.Sprintf("fig3 loaded exchange + idle token ring, %d nodes", *nodes),
		Label:      *label,
		HostCores:  runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Notes: []string{
			"cycles_per_sec = measured cycles / wall seconds; ns/op in go_bench is ns per machine cycle",
			"state digests within each workload must be equal (byte-identical simulation)",
			"speedup_vs_sequential (fig3, sharded engine) requires >= 4 hardware threads; on fewer cores the rendezvous overhead dominates",
			"fastpath_speedup_idle (token ring, event-horizon scheduler vs reference loop) is host-independent: it comes from not stepping parked nodes",
			"roofline classifies each fig3 shape by the compiled tier's speedup: dispatch-bound when removing instruction dispatch pays, memory-bound when host time lives in routers/queues/charge machinery the tier leaves to the interpreter",
			"fusion compares per-handler send-distance certificates against the old whole-image NoSend licensing: the fig3-resident shape (send-free loop, sending image) is where the certificates recover coverage; window_ends shows whether each shape is license-bound or code-bound",
			"history carries one summary line per past run of this file",
		},
		Speedup:      map[string]float64{},
		DigestsMatch: true,
	}
	if cores := runtime.NumCPU(); maxShards(counts) > cores {
		note := fmt.Sprintf("WARNING: host has %d cores but -shards requests up to %d; sharded rows oversubscribe the host and their speedups understate the engine",
			cores, maxShards(counts))
		fmt.Fprintln(os.Stderr, note)
		rep.Notes = append(rep.Notes, note)
	}

	// Figure 3 loaded exchange across shard counts.
	var seqRate float64
	for _, k := range counts {
		row := sc
		row.Shards = k
		if row.Ckpt.Path != "" {
			// One file per shard row: rows are independent runs, and a
			// resumed campaign must pair each row with its own state.
			row.Ckpt.Path += fmt.Sprintf(".s%d", k)
		}
		res, err := bench.EngineProbe(*nodes, row, *warm, *measure)
		if err != nil {
			log.Fatal(err)
		}
		rep.Probe = append(rep.Probe, res)
		fmt.Fprintf(os.Stderr, "fig3 probe nodes=%d shards=%d: %.0f cycles/sec (digest %#x)\n",
			res.Nodes, res.Shards, res.CyclesPerSec, res.Digest)
		if k <= 1 && seqRate == 0 {
			seqRate = res.CyclesPerSec
		}
		if res.Digest != rep.Probe[0].Digest {
			rep.DigestsMatch = false
		}
	}
	if seqRate > 0 {
		for _, res := range rep.Probe {
			if res.Shards > 1 {
				rep.Speedup[fmt.Sprintf("shards-%d", res.Shards)] = res.CyclesPerSec / seqRate
			}
		}
	}

	// Idle token ring: reference loop, then the fast path, sequentially
	// and under the shard counts.
	type idleRun struct {
		mode string
		sim.Config
	}
	idleRuns := []idleRun{{"reference", sim.Config{Reference: true}}, {"fast", sim.Config{}}}
	for _, k := range counts {
		if k > 1 {
			idleRuns = append(idleRuns, idleRun{"fast", sim.Config{Shards: k}})
		}
	}
	var idleRef, idleFast float64
	for _, r := range idleRuns {
		res, err := bench.IdleProbe(*nodes, r.Config, *idleTokens, *warm, *measure)
		if err != nil {
			log.Fatal(err)
		}
		rep.IdleProbe = append(rep.IdleProbe, idleProbeRow{EngineProbeResult: res, Mode: r.mode})
		fmt.Fprintf(os.Stderr, "idle probe nodes=%d mode=%s shards=%d: %.0f cycles/sec (digest %#x)\n",
			res.Nodes, r.mode, res.Shards, res.CyclesPerSec, res.Digest)
		if res.Digest != rep.IdleProbe[0].Digest {
			rep.DigestsMatch = false
		}
		if r.Shards == 0 {
			if r.Reference {
				idleRef = res.CyclesPerSec
			} else {
				idleFast = res.CyclesPerSec
			}
		}
	}
	if idleRef > 0 && idleFast > 0 {
		rep.FastPathSpeedup = idleFast / idleRef
		fmt.Fprintf(os.Stderr, "fast-path speedup on the idle ring: %.1fx\n", rep.FastPathSpeedup)
	}

	// Compiled-tier roofline: both fig3 shapes at both tiers, classified
	// by how much host time closure dispatch + fusion removes.
	if *roofline {
		res, err := bench.Roofline(*nodes, *warm, *measure)
		if err != nil {
			log.Fatal(err)
		}
		rep.Roofline = res
		for _, s := range []string{"fig3-compute", "fig3-exchange"} {
			fmt.Fprintf(os.Stderr, "roofline %s: compiled speedup %.2fx (%s)\n",
				s, res.Speedup[s], res.Bound[s])
		}
		if !res.DigestsMatch {
			rep.DigestsMatch = false
		}
	}
	// Fusion-coverage probe: per-handler send-distance certificates vs
	// the old whole-image NoSend licensing, per shape.
	if *fusion {
		res, err := bench.FusionProbe(*nodes, *warm+*measure)
		if err != nil {
			log.Fatal(err)
		}
		rep.Fusion = res
		for i := 0; i+1 < len(res.Rows); i += 2 {
			base, cert := res.Rows[i], res.Rows[i+1]
			fmt.Fprintf(os.Stderr, "fusion %s: fused share %.4f -> %.4f with certificates (gain %+.4f)\n",
				base.Shape, base.FusedShare, cert.FusedShare, res.ShareGain[base.Shape])
		}
		if !res.DigestsMatch {
			rep.DigestsMatch = false
		}
	}
	// Rendezvous-reduction probe: epoch protocol on the token ring and
	// the pingpong against the oracle's one rendezvous per cycle.
	if *rendezvous {
		rv, err := bench.RendezvousProbe(64, 4, *idleTokens, 20000)
		if err != nil {
			log.Fatal(err)
		}
		rep.Rendezvous = rv
		for _, r := range rv {
			fmt.Fprintf(os.Stderr, "rendezvous %s: per-cycle %d, epoch %d (%.0fx reduction)\n",
				r.Workload, r.PerCycle, r.Epoch, r.Reduction)
		}
	}

	// Mesh-scaling sweep: large token rings under the epoch engine.
	if *meshList != "" {
		for _, f := range strings.Split(*meshList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				log.Fatalf("bad -mesh entry %q: %v", f, err)
			}
			res, err := bench.MeshScalingProbe(n, *meshShards, *idleTokens, *meshCycles, n <= *meshCheckMax)
			if err != nil {
				log.Fatal(err)
			}
			rep.MeshScaling = append(rep.MeshScaling, res)
			fmt.Fprintf(os.Stderr, "mesh probe nodes=%d shards=%d: %.0f cycles/sec, %d B/node heap, %d rendezvous (checked=%v)\n",
				res.Nodes, res.Shards, res.CyclesPerSec, res.HeapBytesPerNode, res.Rendezvous, res.Checked)
		}
	}

	if !rep.DigestsMatch {
		log.Fatal("state digests diverged across runs of the same workload — determinism violation")
	}

	if *gobench != "" {
		lines, err := parseGoBench(*gobench)
		if err != nil {
			log.Fatal(err)
		}
		rep.GoBench = lines
	}

	// Append, never erase: fold the previous file's summary (and its
	// accumulated history) into this report's history.
	if *out != "-" {
		if prev, err := os.ReadFile(*out); err == nil {
			var old report
			if err := json.Unmarshal(prev, &old); err == nil {
				rep.History = append(old.History, old.summarize())
			} else {
				fmt.Fprintf(os.Stderr, "warning: %s exists but is not a jm-bench report (%v); history starts fresh\n", *out, err)
			}
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// runMeshSmoke is the CI entry point: the deterministic rendezvous
// probe (failing on a reduction below the committed 10x floor) and one
// digest-checked 4096-node mesh row. No file is written.
func runMeshSmoke(cycles int64) {
	rv, err := bench.RendezvousProbe(64, 4, 4, 20000)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rv {
		if r.Epoch != 0 && r.Reduction < 10 {
			log.Fatalf("rendezvous %s: reduction %.1fx below the 10x floor (per-cycle %d, epoch %d)",
				r.Workload, r.Reduction, r.PerCycle, r.Epoch)
		}
		fmt.Printf("rendezvous %s: per-cycle %d, epoch %d ok\n", r.Workload, r.PerCycle, r.Epoch)
	}
	res, err := bench.MeshScalingProbe(4096, 4, 4, cycles, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh 4096: digest %#x checked vs reference, %d B/node heap, %d rendezvous\n",
		res.Digest, res.HeapBytesPerNode, res.Rendezvous)
}

// maxShards returns the largest requested shard count.
func maxShards(counts []int) int {
	max := 0
	for _, k := range counts {
		if k > max {
			max = k
		}
	}
	return max
}

// parseGoBench extracts "BenchmarkX-N  iters  ns/op" rows from a
// `go test -bench` output file.
func parseGoBench(path string) ([]goBenchLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []goBenchLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, goBenchLine{Name: fields[0], Iterations: iters, NsPerOp: ns})
	}
	return out, sc.Err()
}
