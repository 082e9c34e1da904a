package jmachine_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests the repo benchmark from this
// module's suite. benchmark/ is a module of its own, which `go test
// ./...` here never compiles, yet its smoke test is what holds
// benchmark/golden.json and the cross-configuration digest checks
// (oracle, shards=2, obs, checkpoint round trip) against the simulator
// — so a change to the stepping loops is guarded by tier-1, not only by
// scripts/check.sh. It runs the go command found on PATH with the
// inherited environment and edits nothing.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's smoke test at the quick scale: ~10 s")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command(goCmd, args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmark: go %v: %v\n%s", args, err, out)
		}
	}
}
