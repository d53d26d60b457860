package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke builds the swaplint binary and runs it against the seeded
// fixture module in testdata/badmod, which seeds violations of every
// analyzer. The binary must exit 1 and report findings of exactly the
// suite's analyzers.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "swaplint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building swaplint: %v\n%s", err, out)
	}

	fixture, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fixture, "go.mod")); err != nil {
		t.Fatalf("fixture module missing: %v", err)
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = fixture
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error (findings), got err=%v\n%s", err, out)
	}
	if code := exit.ExitCode(); code != 1 {
		t.Fatalf("want exit code 1, got %d\n%s", code, out)
	}
	for _, analyzer := range []string{"clockcheck", "sitecheck", "gatecheck", "lockorder"} {
		if !strings.Contains(string(out), "["+analyzer+"]") {
			t.Errorf("output missing a %s finding:\n%s", analyzer, out)
		}
	}
	// gate.go's pipe blocks inside a critical section: gatecheck's rule.
	if !regexp.MustCompile(`gate\.go:\d+:\d+: channel receive while holding core\.pipe\.mu.*\[gatecheck\]`).Match(out) {
		t.Errorf("output missing gatecheck's blocking finding on pipe:\n%s", out)
	}

	// -json emits the same findings as a machine-readable array (the CI
	// problem matcher consumes this shape).
	jsonCmd := exec.Command(bin, "-json", "./...")
	jsonCmd.Dir = fixture
	jsonOut, err := jsonCmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit code 1 from -json run, got err=%v\n%s", err, jsonOut)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(jsonOut, &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, jsonOut)
	}
	if len(diags) == 0 {
		t.Fatal("-json output is empty despite findings")
	}
	seen := map[string]bool{}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		seen[d.Analyzer] = true
	}
	if want := map[string]bool{"clockcheck": true, "sitecheck": true, "gatecheck": true, "lockorder": true}; !reflect.DeepEqual(seen, want) {
		t.Errorf("analyzers with findings = %v, want exactly %v", seen, want)
	}
}
