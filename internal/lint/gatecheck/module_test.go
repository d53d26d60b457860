package gatecheck_test

import (
	"encoding/json"
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

func runAnalyzers(t *testing.T, dir, pattern string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	fset, pkgs, err := lint.Load(dir, []string{pattern})
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
	diags := runAnalyzers(t, moduleRoot(t), "./...", gatecheck.New(), blockcheck.New(), lockorder.New())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// Turning swapMu in internal/core back into a sync.Mutex must make
// gatecheck fail with a diagnostic naming the mutex and the wait path —
// the mutation check that proves the analyzer guards the invariant
// rather than vacuously passing. The mutated files reach both the
// go command and the loader through a GOFLAGS overlay on the real
// module, so only internal/core recompiles.
func TestMutationDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles and loads internal/core")
	}
	requireGo(t)
	root := moduleRoot(t)
	tmp := t.TempDir()
	replace := make(map[string]string)

	mutate := func(file, from, to string) {
		path := filepath.Join(root, "internal", "core", file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), from) {
			t.Fatalf("%s no longer contains %q; update the mutation", file, from)
		}
		mutated := filepath.Join(tmp, file)
		if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), from, to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		replace[path] = mutated
	}
	mutate("backend.go", "swapMu simclock.Mutex", "swapMu sync.Mutex")
	mutate("scheduler.go", "b.swapMu.Lock(simclock.GateFor(s.clock))", "b.swapMu.Lock()")

	overlay, err := json.Marshal(map[string]map[string]string{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOFLAGS", "-overlay="+overlayFile)

	diags := runAnalyzers(t, root, "./internal/core", gatecheck.New())
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
