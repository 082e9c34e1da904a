package main

import (
	"os"
	"strings"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/jlang"
)

// TestCheckOutputShape pins the -check output format: findings print
// one per line as handler+offset@addr: CODE: message, and a clean
// program prints the instruction count summary with exit status 0.
func TestCheckOutputShape(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("h")
	b.MoveI(isa.R0, 0)
	b.Add(isa.R1, asm.Imm(1)) // ASM001: R1 undefined at dispatch
	b.Suspend()
	p := b.MustAssemble()

	var out strings.Builder
	if status := checkProgram(&out, "bad.j", p); status != 1 {
		t.Errorf("dirty program: status = %d, want 1", status)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "h+1@1: ASM001: ") {
		t.Errorf("finding line = %q, want handler+offset@addr: ASM001: prefix", out.String())
	}

	b = asm.NewBuilder()
	b.Label("h")
	b.MoveI(isa.R0, 0)
	b.Suspend()
	p = b.MustAssemble()

	out.Reset()
	if status := checkProgram(&out, "ok.j", p); status != 0 {
		t.Errorf("clean program: status = %d, want 0", status)
	}
	if got := out.String(); got != "ok.j: 2 instructions, check clean\n" {
		t.Errorf("clean summary = %q", got)
	}
}

// eventLines returns the event lines of run's output, those after the
// statistics line.
func eventLines(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "instructions ") {
			return lines[i+1:]
		}
	}
	t.Fatalf("no statistics line in %q", out)
	return nil
}

// TestTraceKeepsFirstEvents pins -trace N to the first N events of each
// node. Node 0 of testdata/selfsend.j emits about 9,000 events, more
// than twice the 4,096 that a ring of the most recent events keeps, so
// a tap that retained only the latest events would print a window
// hundreds of thousands of cycles into the run.
func TestTraceKeepsFirstEvents(t *testing.T) {
	src, err := os.ReadFile("testdata/selfsend.j")
	if err != nil {
		t.Fatal(err)
	}
	c, err := jlang.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var all, first strings.Builder
	if err := run(&all, c, 1, false, 1<<30, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := run(&first, c, 1, false, 3, 100_000_000); err != nil {
		t.Fatal(err)
	}
	every := eventLines(t, all.String())
	if len(every) <= 2*4096 {
		t.Fatalf("node 0 emitted %d events, want more than %d", len(every), 2*4096)
	}
	got := eventLines(t, first.String())
	if strings.Join(got, "\n") != strings.Join(every[:3], "\n") {
		t.Fatalf("-trace 3 printed\n%s\nwant the run's first three events\n%s",
			strings.Join(got, "\n"), strings.Join(every[:3], "\n"))
	}
	if want := "n00 [      93] n000 send     a=0 b=1"; got[0] != want {
		t.Errorf("first event = %q, want %q", got[0], want)
	}
}
