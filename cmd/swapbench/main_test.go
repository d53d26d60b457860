package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swapservellm/internal/experiments"
	"swapservellm/internal/obs"
)

// inTempDir runs fn with a fresh working directory: swapbench writes
// the BENCH_*.json artifacts it regenerates into the directory it runs
// in.
func inTempDir(t *testing.T, fn func(dir string)) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	fn(dir)
}

// swapbench runs the command with args and returns its exit status,
// stdout and stderr.
func swapbench(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestAllPrintsGoldens: -exp all prints every registry entry's golden
// in registry order, each followed by a blank line, and regenerates
// every BENCH artifact byte for byte.
func TestAllPrintsGoldens(t *testing.T) {
	goldens, err := filepath.Abs("../../internal/experiments/testdata/stdout")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	inTempDir(t, func(dir string) {
		code, stdout, stderr := swapbench("-exp", "all")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		var want strings.Builder
		for _, x := range experiments.All {
			golden, err := os.ReadFile(filepath.Join(goldens, x.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			want.Write(golden)
			want.WriteString("\n")
		}
		if stdout != want.String() {
			t.Errorf("-exp all stdout is not the goldens joined in registry order:\ngot:\n%s\nwant:\n%s", stdout, want.String())
		}
		benches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(benches) == 0 {
			t.Fatal("-exp all wrote no BENCH artifact")
		}
		for _, path := range benches {
			name := filepath.Base(path)
			got, _ := os.ReadFile(path)
			committed, err := os.ReadFile(filepath.Join(root, name))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(committed) {
				t.Errorf("%s differs from the committed artifact", name)
			}
			if !strings.Contains(stderr, "swapbench: wrote "+name+"\n") {
				t.Errorf("stderr does not name %s:\n%s", name, stderr)
			}
		}
	})
}

// TestUnknownExperiment: an unknown name exits 2 and lists every
// registry entry.
func TestUnknownExperiment(t *testing.T) {
	code, stdout, stderr := swapbench("-exp", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want empty", stdout)
	}
	var names []string
	for _, x := range experiments.All {
		names = append(names, x.Name)
	}
	want := "swapbench: unknown experiment \"bogus\"\nknown: " + strings.Join(names, " ") + " all\n"
	if stderr != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr, want)
	}
}

// TestPipelineTrace: -exp pipeline -trace writes a Chrome trace that
// passes the schema check cmd/tracecheck applies.
func TestPipelineTrace(t *testing.T) {
	inTempDir(t, func(dir string) {
		code, _, stderr := swapbench("-exp", "pipeline", "-trace", dir)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		path := dir + "/pipeline.trace.json"
		if !strings.HasPrefix(stderr, "swapbench: wrote "+path+"\n") {
			t.Errorf("stderr does not start by naming the trace:\n%s", stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateTraceEvents(data); err != nil {
			t.Fatalf("trace fails validation: %v", err)
		}
	})
}
