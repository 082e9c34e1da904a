// jm-tables regenerates every table and figure of the paper's evaluation
// section and prints them as text.
//
// Usage:
//
//	jm-tables [-quick] [-paper] [-v] [-exp fig2,tab1,...]
//	          [-reference] [-compiled]
//
// Experiments: seq, fig2, tab1, fig3, fig4, tab2, tab3, fig5, fig6,
// tab4, tab5, ablate (default: all).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"jmachine/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink machines and problem sizes")
	paper := flag.Bool("paper", false, "use the paper's exact problem sizes (slow)")
	verbose := flag.Bool("v", false, "print progress")
	plots := flag.Bool("plots", false, "render ASCII plots for the figures")
	exps := flag.String("exp", "all", "comma-separated experiment list")
	// An experiment steps many machines, so there is no one checkpoint
	// file to write or resume.
	var o bench.Options
	o.Register(flag.CommandLine, "ckpt", "ckpt-every", "resume")
	flag.Parse()
	if err := o.Validate(); err != nil {
		log.Fatal(err)
	}
	o.Quick, o.PaperScale, o.Verbose = *quick, *paper, *verbose
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	type experiment struct {
		name string
		run  func() error
	}
	show := func(t fmt.Stringer) { fmt.Println(t.String()) }

	experiments := []experiment{
		{"seq", func() error {
			r, err := bench.SequentialRates(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"fig2", func() error {
			r, err := bench.Fig2(o)
			if err != nil {
				return err
			}
			show(r.Table())
			if *plots {
				fmt.Println(bench.Plot("Figure 2 (plot)", "hops", "RTT cycles", r.Series, 64, 18))
			}
			return nil
		}},
		{"tab1", func() error {
			r, err := bench.Table1(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"fig3", func() error {
			r, err := bench.Fig3(o)
			if err != nil {
				return err
			}
			for _, t := range r.Tables() {
				show(t)
			}
			if *plots {
				fmt.Println(bench.Plot("Figure 3 left (plot)", "bisection Mbits/s", "one-way latency (cycles)", r.Latency, 64, 18))
				fmt.Println(bench.Plot("Figure 3 right (plot)", "grain (cycles)", "efficiency", r.Efficiency, 64, 18))
			}
			return nil
		}},
		{"fig4", func() error {
			r, err := bench.Fig4(o)
			if err != nil {
				return err
			}
			show(r.Table())
			if *plots {
				fmt.Println(bench.Plot("Figure 4 (plot)", "message words", "Mbits/s", r.Series, 64, 18))
			}
			return nil
		}},
		{"tab2", func() error {
			r, err := bench.Table2(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"tab3", func() error {
			r, err := bench.Table3(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"fig5", func() error {
			r, err := bench.Fig5(o)
			if err != nil {
				return err
			}
			show(r.Table())
			if *plots {
				fmt.Println(bench.Plot("Figure 5 (plot)", "nodes", "speedup", r.Series, 64, 18))
			}
			return nil
		}},
		{"fig6", func() error {
			r, err := bench.Fig6(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"tab4", func() error {
			r, err := bench.Table4(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"tab5", func() error {
			r, err := bench.Table5(o)
			if err != nil {
				return err
			}
			show(r.Table())
			return nil
		}},
		{"ablate", func() error {
			for _, run := range []func(bench.Options) (*bench.AblationResult, error){
				bench.AblateDispatch, bench.AblateArbitration, bench.AblateQueueSize,
				bench.AblateFlowControl, bench.AblateNaming,
			} {
				r, err := run(o)
				if err != nil {
					return err
				}
				show(r.Table())
			}
			return nil
		}},
	}

	for _, e := range experiments {
		if !sel(e.name) {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
}
