// jm-lint runs the determinism analyzer suite (internal/lint) over the
// simulation packages, as scripts/check.sh and CI do:
//
//	jm-lint ./internal/...
//	jm-lint -c maporder,stepconc ./internal/mdp ./internal/machine
//	jm-lint -list
//
// It loads and type-checks the named packages fully offline (repository
// imports from the module tree, standard library from GOROOT source)
// and applies every analyzer across the whole package set at once, so
// cross-package reachability (digest roots in internal/stats calling
// into internal/mdp) is seen.
//
// Exit status is 1 if any diagnostic is reported, 2 on usage or load
// errors. Diagnostics and their suppression annotations are documented
// in docs/LINT.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jmachine/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("c", "", "comma-separated analyzer names or codes to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s  %s\n", a.Name, a.Code, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}

	modDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modDir)
	if err != nil {
		fatal(err)
	}
	prog, err := loader.LoadDirs(patterns...)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(prog, analyzers)
	for _, d := range diags {
		fmt.Println(rel(modDir, d))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jm-lint:", err)
	os.Exit(2)
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := lint.AnalyzerByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// rel shortens the diagnostic's filename to be module-relative for
// stable, readable output.
func rel(modDir string, d lint.Diagnostic) string {
	if r, err := filepath.Rel(modDir, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d.String()
}
