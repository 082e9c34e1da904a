// Package bench regenerates every table and figure of the paper's
// evaluation. Each experiment builds the same workload the paper
// describes, runs it on the simulated J-Machine, and prints rows or
// series in the paper's units (cycles, microseconds at 12.5 MHz,
// Mbits/second). Comparison columns for other machines come from the
// published figures in package baseline, exactly as the paper used them.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"jmachine/internal/mdp"
	"jmachine/internal/sim"
)

// Options tunes experiment scale. The defaults run in seconds on a
// workstation; Paper-scale runs use the paper's exact parameters and
// take correspondingly longer.
type Options struct {
	// Quick shrinks machines and problem sizes for smoke tests.
	Quick bool
	// PaperScale uses the paper's exact problem sizes (512-node
	// machines, 64K keys, 13 queens, 14 cities).
	PaperScale bool
	// Verbose prints progress as points complete.
	Verbose  bool
	Progress func(format string, args ...any)
	// Config is the run configuration applied to every machine the
	// experiment steps (stepping mode, handler tier, obs; see
	// internal/sim). Every field is purely a wall-clock knob: results
	// are byte-identical across all of them, which scripts/check.sh
	// re-proves on the table text. The tiny one- and two-node rigs
	// (tab1, tab2, fig4, seq, ablations) run the zero configuration.
	sim.Config
}

// stopRun drains a run's trace files.
// A trace write failure is reported, not returned: for the tables and
// figures observability is a tap, never a result dependency.
func stopRun(r *sim.Run) {
	if err := r.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
	}
}

func (o Options) progress(format string, args ...any) {
	if o.Verbose {
		if o.Progress != nil {
			o.Progress(format, args...)
		} else {
			fmt.Printf(format+"\n", args...)
		}
	}
}

// Micros converts cycles to microseconds at the 12.5 MHz clock.
func Micros(cycles float64) float64 { return mdp.CyclesToMicros(cycles) }

// Mbits converts bits-per-cycle to Mbits/second at the 12.5 MHz clock.
func Mbits(bitsPerCycle float64) float64 { return bitsPerCycle * mdp.ClockHz / 1e6 }

// Series is one labelled curve of (x, y) points.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement.
type Point struct {
	X, Y float64
}

// Table renders labelled rows with a fixed column layout.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// SeriesTable renders a family of curves as columns of (x, y) pairs.
func SeriesTable(title string, xlabel, ylabel string, series []Series) *Table {
	t := &Table{Title: title, Columns: []string{xlabel}}
	for _, s := range series {
		t.Columns = append(t.Columns, s.Label)
	}
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	_ = ylabel
	return t
}

// runParallel executes fn(0..n-1) across up to GOMAXPROCS workers.
// Simulated machines are single-goroutine, so independent experiment
// points parallelize perfectly.
func runParallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}
