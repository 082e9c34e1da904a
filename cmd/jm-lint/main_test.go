package main_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles jm-lint into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jm-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building jm-lint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStandaloneFindings runs the built driver against a fixture module
// and checks the golden properties: exit status 1, one line per
// diagnostic, stable order, the expected codes.
func TestStandaloneFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tool")
	}
	bin := buildTool(t)
	fixture := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "src", "jml002")
	cmd := exec.Command(bin, ".")
	cmd.Dir = fixture
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on findings, got %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 diagnostics, got %d:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "JML002") || !strings.HasPrefix(l, "a.go:") {
			t.Errorf("unexpected diagnostic line %q", l)
		}
	}
	if !strings.HasPrefix(lines[0], "a.go:8:") || !strings.HasPrefix(lines[1], "a.go:11:") {
		t.Errorf("diagnostics not in position order:\n%s", out)
	}
}

// TestStandaloneClean runs the driver over the real tree, as CI does.
func TestStandaloneClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the tool over the whole tree")
	}
	bin := buildTool(t)
	cmd := exec.Command(bin, "./internal/...")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("jm-lint ./internal/... not clean: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("want no output when clean, got:\n%s", out)
	}
}
