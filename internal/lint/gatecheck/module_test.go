package gatecheck_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/blockcheck"
	"swapservellm/internal/lint/gatecheck"
	"swapservellm/internal/lint/lockorder"
)

// moduleRoot locates the repository root relative to this source file.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(file))))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

func runAnalyzers(t *testing.T, dir string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	fset, pkgs, err := lint.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return lint.NewRunner(analyzers...).Run(fset, pkgs)
}

// The tree must stay clean under the interprocedural analyzers: every
// wait-across-hold is gated, nothing blocks ungated inside a critical
// section, and the observed lock order matches the declaration.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	requireGo(t)
	diags := runAnalyzers(t, moduleRoot(t), gatecheck.New(), blockcheck.New(), lockorder.New())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// Turning swapMu in internal/core back into a sync.Mutex must make
// gatecheck fail with a diagnostic naming the mutex and the wait path —
// the mutation check that proves the analyzer guards the invariant
// rather than vacuously passing.
func TestMutationDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and loads the whole module")
	}
	requireGo(t)
	root := moduleRoot(t)
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	mutate := func(file, from, to string) {
		path := filepath.Join(tmp, "internal", "core", file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), from) {
			t.Fatalf("%s no longer contains %q; update the mutation", file, from)
		}
		mutated := strings.Replace(string(src), from, to, 1)
		if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mutate("backend.go", "swapMu simclock.Mutex", "swapMu sync.Mutex")
	mutate("scheduler.go", "b.swapMu.Lock(simclock.GateFor(s.clock))", "b.swapMu.Lock()")

	diags := runAnalyzers(t, tmp, gatecheck.New())
	var hit bool
	for _, d := range diags {
		if d.Analyzer != "gatecheck" {
			continue
		}
		if strings.Contains(d.Message, "core.Backend.swapMu") &&
			strings.Contains(d.Message, "can be held across a simulated-clock wait") &&
			strings.Contains(d.Message, "→") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("gatecheck did not flag the sync swapMu acquisition; diagnostics: %v", diags)
	}
}

// copyModule mirrors the module source tree (skipping .git and
// testdata fixtures, which carry deliberate violations).
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == ".git" || name == "testdata" || name == ".github") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}
