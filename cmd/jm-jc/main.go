// jm-jc compiles a J-subset source file (see internal/jlang) and runs it
// on a simulated J-Machine.
//
// Usage:
//
//	jm-jc [-nodes N] [-all] [-listing] [-check] [-trace N] [-max cycles] prog.j
//
// The program's "main" boots on node 0 (or on every node with -all) and
// the machine runs until node 0 halts. Global variables and execution
// statistics are printed at exit.
//
// With -check the assembled program is run through the static MDP
// verifier (internal/asm.Check, see docs/LINT.md) instead of being
// executed: findings are printed one per line and the exit status is 1
// if any fire, 0 on a clean program.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"jmachine/internal/asm"
	"jmachine/internal/bench"
	"jmachine/internal/jlang"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/stats"
	"jmachine/internal/trace"
)

// checkProgram runs the static MDP verifier and prints the findings,
// one per line in handler+offset@addr: CODE: message form (see
// asm.Finding.String), or a clean summary. Returns the exit status.
func checkProgram(w io.Writer, name string, p *asm.Program) int {
	findings := asm.Check(p, rt.CheckAllowances()...)
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	if len(findings) > 0 {
		return 1
	}
	fmt.Fprintf(w, "%s: %d instructions, check clean\n", name, len(p.Instrs))
	return 0
}

func main() {
	nodes := flag.Int("nodes", 1, "machine size")
	all := flag.Bool("all", false, "boot main on every node (SPMD)")
	listing := flag.Bool("listing", false, "print the generated assembly")
	check := flag.Bool("check", false, "run the static MDP verifier instead of executing")
	traceN := flag.Int("trace", 0, "print the first N machine events per node")
	max := flag.Int64("max", 100_000_000, "cycle budget")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jm-jc [flags] prog.j")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	c, err := jlang.Compile(string(src))
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	if !c.Program.HasLabel("main") {
		log.Fatal("program has no func main()")
	}
	if *listing {
		fmt.Print(c.Program.Listing())
	}
	if *check {
		os.Exit(checkProgram(os.Stdout, flag.Arg(0), c.Program))
	}

	if err := run(os.Stdout, c, *nodes, *all, *traceN, *max); err != nil {
		log.Fatal(err)
	}
}

// run executes the compiled program until node 0 halts and prints the
// cycle count, node 0's globals, the execution statistics and, with
// traceN > 0, the first traceN events of every node.
func run(w io.Writer, c *jlang.Compiled, nodes int, all bool, traceN int, max int64) error {
	m, err := machine.New(machine.GridForNodes(nodes), c.Program)
	if err != nil {
		return err
	}
	rt.Attach(m, rt.Info(c.Program), rt.DefaultPolicy())
	var events [][]trace.Event
	if traceN > 0 {
		events = make([][]trace.Event, len(m.Nodes))
		for i, n := range m.Nodes {
			evs := &events[i]
			n.Watch = func(e trace.Event) {
				if len(*evs) < traceN {
					*evs = append(*evs, e)
				}
			}
		}
	}
	if all {
		rt.StartAll(m, c.Program, "main")
	} else {
		rt.StartNode(m, c.Program, 0, "main")
	}
	if err := m.RunUntilHalt(0, max); err != nil {
		return err
	}

	fmt.Fprintf(w, "halted after %d cycles (%.3f ms at 12.5 MHz) on %d nodes\n",
		m.Cycle(), bench.Micros(float64(m.Cycle()))/1000, m.NumNodes())
	names := make([]string, 0, len(c.Globals))
	for n := range c.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, _ := m.Nodes[0].Mem.Read(c.Globals[n])
		fmt.Fprintf(w, "  %s = %d\n", n, v.Data())
	}
	bd := m.Stats.Breakdown()
	fmt.Fprintf(w, "instructions %d, threads %d; comp %.1f%% comm %.1f%% sync %.1f%% idle %.1f%%\n",
		m.Stats.Instrs(), m.Stats.Threads(),
		100*bd[stats.CatComp], 100*bd[stats.CatComm], 100*bd[stats.CatSync], 100*bd[stats.CatIdle])
	for id, evs := range events {
		for _, e := range evs {
			fmt.Fprintf(w, "n%02d %s\n", id, e)
		}
	}
	return nil
}
