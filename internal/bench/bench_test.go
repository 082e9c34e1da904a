package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jmachine/internal/obs"
	"jmachine/internal/sim"
)

var quick = Options{Quick: true}

func TestFig2Calibration(t *testing.T) {
	r, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Base latency near the paper's 43 cycles.
	if r.SelfPingCycles < 33 || r.SelfPingCycles > 55 {
		t.Errorf("self-ping = %d cycles, want ≈43", r.SelfPingCycles)
	}
	// Round-trip slope of 2 cycles/hop.
	if r.SlopePerHop < 1.9 || r.SlopePerHop > 2.1 {
		t.Errorf("slope = %.2f, want 2", r.SlopePerHop)
	}
	// Remote reads: external memory costs more, and more words cost
	// more. Compare the curves at distance 0.
	at0 := func(i int) float64 { return r.Series[i].Points[0].Y }
	ping, r1i, r1e, r6i, r6e := at0(0), at0(1), at0(2), at0(3), at0(4)
	if !(ping < r1i && r1i < r1e && r1i < r6i && r6i < r6e) {
		t.Errorf("latency ordering wrong: ping=%v r1i=%v r1e=%v r6i=%v r6e=%v",
			ping, r1i, r1e, r6i, r6e)
	}
	// Emem adds ~6 cycles/word in the remote-read server.
	if d := r1e - r1i; d < 4 || d > 9 {
		t.Errorf("Read1 Emem-Imem = %.0f, want ≈6", d)
	}
	if d := r6e - r6i; d < 28 || d > 44 {
		t.Errorf("Read6 Emem-Imem = %.0f, want ≈36", d)
	}
	if !strings.Contains(r.Table().String(), "Ping") {
		t.Error("table missing Ping column")
	}
}

func TestTable1Calibration(t *testing.T) {
	r, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	var measured float64
	var perByte float64
	for _, row := range r.Rows {
		if row.Measured {
			measured = row.CyclesPer
			perByte = row.CyclesByte
		}
	}
	// The paper reports 11 cycles/message and 0.5 cycles/byte; the
	// published comparators are one to two orders of magnitude worse.
	if measured < 7 || measured > 16 {
		t.Errorf("measured overhead = %.1f cycles/msg, want ≈11", measured)
	}
	if perByte < 0.3 || perByte > 0.7 {
		t.Errorf("measured per-byte = %.2f cycles, want ≈0.5", perByte)
	}
	if ratio := 460 / measured; ratio < 25 {
		t.Errorf("nCUBE/2 AM overhead only %.0fx worse", ratio)
	}
}

func TestTable2Calibration(t *testing.T) {
	r, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Success 2/5, Failure 6/7, Write 4/6, Restart 0/0.
	within := func(got, want, tol int64) bool { return got >= want-tol && got <= want+tol }
	if !within(r.Tags[0], 2, 0) || !within(r.NoTags[0], 5, 1) {
		t.Errorf("Success = %d/%d, want 2/5", r.Tags[0], r.NoTags[0])
	}
	if !within(r.Tags[1], 6, 0) || !within(r.NoTags[1], 7, 1) {
		t.Errorf("Failure = %d/%d, want 6/7", r.Tags[1], r.NoTags[1])
	}
	if !within(r.Tags[2], 4, 0) || !within(r.NoTags[2], 6, 1) {
		t.Errorf("Write = %d/%d, want 4/6", r.Tags[2], r.NoTags[2])
	}
	// Hardware tags must never be slower than the software protocol.
	for i := range r.Tags {
		if r.Tags[i] > r.NoTags[i] {
			t.Errorf("%s: tags (%d) slower than no-tags (%d)", tab2Events[i], r.Tags[i], r.NoTags[i])
		}
	}
}

func TestTable3Calibration(t *testing.T) {
	r, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Measured barrier times grow with machine size and stay within the
	// paper's order of magnitude (4.4 µs at 2 nodes, 11.7 at 16).
	if r.Measured[0] < 2 || r.Measured[0] > 9 {
		t.Errorf("2-node barrier = %.1f µs, want ≈4.4", r.Measured[0])
	}
	last := len(r.Measured) - 1
	if r.Measured[last] <= r.Measured[0] {
		t.Error("barrier time does not grow with machine size")
	}
	if r.Measured[last] > 30 {
		t.Errorf("16-node barrier = %.1f µs, want ≈11.7", r.Measured[last])
	}
	// Contemporary machines are one to two orders of magnitude slower.
	if r.Measured[0] > 60.0/5 {
		t.Error("KSR comparison no longer an order of magnitude")
	}
}

func TestFig4Calibration(t *testing.T) {
	r, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	discard := r.Series[0]
	last := discard.Points[len(discard.Points)-1]
	peak := last.Y
	// ~90% of the eventual peak with messages as short as 8 words.
	var at8, at2 float64
	for _, p := range discard.Points {
		if p.X == 8 {
			at8 = p.Y
		}
		if p.X == 2 {
			at2 = p.Y
		}
	}
	if at8 < 0.85*peak {
		t.Errorf("8-word bandwidth %.0f < 85%% of peak %.0f", at8, peak)
	}
	// Two-word messages achieve more than half of the eventual peak.
	if at2 < 0.5*peak {
		t.Errorf("2-word bandwidth %.0f < half of peak %.0f", at2, peak)
	}
	// Copy variants are slower, Emem slowest.
	for i, p := range r.Series[1].Points {
		e := r.Series[2].Points[i]
		if p.Y > discard.Points[i].Y+1 || e.Y > p.Y+1 {
			t.Errorf("ordering at %d words: discard=%.0f imem=%.0f emem=%.0f",
				int(p.X), discard.Points[i].Y, p.Y, e.Y)
		}
	}
}

func TestSequentialRatesCalibration(t *testing.T) {
	r, err := SequentialRates(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakMIPS < 10 || r.PeakMIPS > 12.6 {
		t.Errorf("peak = %.1f MIPS, want ≈12.5", r.PeakMIPS)
	}
	if r.TypicalMIPS < 4 || r.TypicalMIPS > 8 {
		t.Errorf("typical = %.1f MIPS, want ≈5.5", r.TypicalMIPS)
	}
	if r.ExternalMIPS >= 2 {
		t.Errorf("external = %.1f MIPS, want <2", r.ExternalMIPS)
	}
}

func TestFig5SpeedupShape(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		last := s.Points[len(s.Points)-1]
		if last.Y < 1.5 {
			t.Errorf("%s: final speedup %.2f", s.Label, last.Y)
		}
		if s.Points[0].Y != 1 {
			t.Errorf("%s: base speedup %.2f != 1", s.Label, s.Points[0].Y)
		}
	}
}

func TestFig6Breakdown(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 4 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	for i, app := range r.Apps {
		sum := 0.0
		for _, v := range r.Breakdown[i] {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: breakdown sums to %.3f", app, sum)
		}
	}
}

func TestTable4Statistics(t *testing.T) {
	r, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 3 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	for _, app := range r.Apps {
		for _, c := range app.Classes {
			if c.Threads == 0 {
				t.Errorf("%s/%s: zero threads", app.Name, c.Name)
			}
		}
	}
	// Shape: NxtChar messages are 3 words; Write messages are 3 words.
	if got := r.Apps[0].Classes[0].MsgLength; got != 3 {
		t.Errorf("NxtChar msg length = %.1f", got)
	}
	if got := r.Apps[2].Classes[1].MsgLength; got != 3 {
		t.Errorf("Write msg length = %.1f", got)
	}
	// N-Queens tasks are 8-word messages and coarse-grained.
	if got := r.Apps[1].Classes[0].MsgLength; got != 8 {
		t.Errorf("NQueens msg length = %.1f", got)
	}
	if r.Apps[1].Classes[0].InstrThread < 100 {
		t.Error("NQueens threads should be coarse")
	}
}

func TestTable5Components(t *testing.T) {
	r, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.UserThreads == 0 || r.OSThreads == 0 {
		t.Fatalf("thread split: user=%d os=%d", r.UserThreads, r.OSThreads)
	}
	if r.Xlates == 0 {
		t.Error("no xlates recorded")
	}
	// User threads run the long DFS slices; OS threads are short.
	if r.UserPerThread <= r.OSPerThread {
		t.Errorf("user threads (%.0f instr) not longer than OS (%.0f)",
			r.UserPerThread, r.OSPerThread)
	}
	if !strings.Contains(r.Table().String(), "xlate") {
		t.Error("table missing xlate rows")
	}
}

func TestFig3LoadCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 sweep is slow")
	}
	r, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Latency) != 4 {
		t.Fatalf("series = %d", len(r.Latency))
	}
	for i, s := range r.Latency {
		lo, hi := s.Points[len(s.Points)-1], s.Points[0]
		// Long messages must show contention at full load; short
		// messages self-throttle on the round-trip wait and stay nearly
		// flat (as the paper's 2-word curve does at low traffic).
		if i >= 2 && hi.Y <= lo.Y {
			t.Errorf("%s: no contention growth (%.1f at load vs %.1f idle)", s.Label, hi.Y, lo.Y)
		}
		if hi.Y < lo.Y-8 {
			t.Errorf("%s: latency fell under load (%.1f vs %.1f)", s.Label, hi.Y, lo.Y)
		}
		if lo.Y <= 0 {
			t.Errorf("%s: non-positive zero-load latency", s.Label)
		}
	}
	// Efficiency rises with grain size.
	for _, s := range r.Efficiency {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Y <= first.Y {
			t.Errorf("%s: efficiency not rising with grain", s.Label)
		}
		if last.Y < 0.5 {
			t.Errorf("%s: coarse-grain efficiency %.2f < 50%%", s.Label, last.Y)
		}
	}
}

// TestConfigReachesEveryPoint pins that the whole run configuration —
// not just the shard count — reaches the machines Fig2 and Table3 step:
// with a metrics sink configured, the experiment must leave a non-empty
// metrics file behind.
func TestConfigReachesEveryPoint(t *testing.T) {
	for _, exp := range []struct {
		name string
		run  func(Options) error
	}{
		{"fig2", func(o Options) error { _, err := Fig2(o); return err }},
		{"tab3", func(o Options) error { _, err := Table3(o); return err }},
	} {
		path := filepath.Join(t.TempDir(), "metrics.jsonl")
		o := Options{Quick: true, Config: sim.Config{Obs: &obs.Options{MetricsPath: path, Every: 64}}}
		if err := exp.run(o); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: no metrics written to %s (err %v): Obs never reached the machines", exp.name, path, err)
		}
	}
}
