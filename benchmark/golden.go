package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenSeed is the seed golden.json was generated at. Runs at any
// other seed skip the goldens and keep every other check.
const goldenSeed = 11

// goldenPath is where -update-golden, run from the repo root, rewrites
// the file; checks read the copy embedded at build time.
const goldenPath = "benchmark/golden.json"

//go:embed golden.json
var goldenJSON []byte

// goldens pins, per scale ("full" or "quick") and workload, the
// simulated statistics no host-side change may move.
type goldens map[string]map[string]map[string]int64

func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// checkGolden compares the run's exact statistics with the pinned ones.
func checkGolden(cfg config, res *result) error {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := g[scaleName(cfg.quick)][cfg.workload]
	res.check(len(want) == len(res.exact), "golden.json pins %d statistics for %s, the run produced %d", len(want), cfg.workload, len(res.exact))
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := res.exact[name]
		res.check(ok && got == want[name], "golden %s.%s: run has %d, golden.json pins %d", cfg.workload, name, got, want[name])
	}
	return nil
}

// updateGolden rewrites this workload's entry at this scale.
func updateGolden(cfg config, res *result) error {
	g := goldens{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	scale := scaleName(cfg.quick)
	if g[scale] == nil {
		g[scale] = map[string]map[string]int64{}
	}
	g[scale][cfg.workload] = res.exact
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o666)
}
