package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false,
	"rewrite the experiment stdout goldens, the BENCH_*.json artifacts and EXPERIMENTS.md's golden blocks")

// goldenEnv is swapbench's default environment: seed 42, ten chaos
// seeds, no trace.
var goldenEnv = Env{Seed: 42, ChaosSeeds: 10}

// repoRoot holds the committed BENCH_*.json artifacts and EXPERIMENTS.md.
const repoRoot = "../.."

// goldenPath is where an experiment's printed table is pinned.
func goldenPath(name string) string {
	return filepath.Join("testdata", "stdout", name+".golden")
}

// TestExperimentGoldens is the experiment suite's behavioural contract:
// every registry entry, run at swapbench's defaults, prints its golden
// byte for byte and regenerates its BENCH_*.json artifact byte for
// byte, and every golden block EXPERIMENTS.md quotes matches its file.
// A change that moves any experiment number fails here until -update
// rewrites the goldens, the artifacts and the doc blocks together.
func TestExperimentGoldens(t *testing.T) {
	benches := map[string]bool{}
	ran := 0
	for _, x := range All {
		t.Run(x.Name, func(t *testing.T) {
			ran++
			out, err := x.Run(goldenEnv)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			out.Print(&sb)
			checkGolden(t, goldenPath(x.Name), sb.String())
			if out.BenchFile != "" {
				benches[out.BenchFile] = true
				checkGolden(t, filepath.Join(repoRoot, out.BenchFile), out.BenchBody)
			}
		})
	}
	t.Run("bench-artifacts", func(t *testing.T) {
		if ran < len(All) {
			t.Skip("only every entry together names every artifact")
		}
		committed, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range committed {
			if name := filepath.Base(path); !benches[name] {
				t.Errorf("%s is committed but no registry entry regenerates it", name)
			}
		}
	})
	t.Run("EXPERIMENTS.md", func(t *testing.T) {
		checkDocGoldens(t, filepath.Join(repoRoot, "EXPERIMENTS.md"))
	})
}

// checkGolden compares got against the file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -run TestExperimentGoldens -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s at %s\n(run go test ./internal/experiments -run TestExperimentGoldens -update to accept)\ngot:\n%s\nwant:\n%s",
			path, firstDiff(got, string(want)), got, want)
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + gl + "\n  want: " + wl
		}
	}
	return "end of file"
}

// docGolden matches one golden block: a marker comment naming the
// experiment, then a fenced block quoting its golden verbatim.
var docGolden = regexp.MustCompile("(?s)<!-- golden: ([a-z0-9-]+) -->\n```text\n(.*?)```\n")

// checkDocGoldens checks every golden block in the doc at path against
// its golden file, or rewrites the blocks under -update. A block naming
// an experiment the registry does not have fails.
func checkDocGoldens(t *testing.T, path string) {
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, x := range All {
		known[x.Name] = true
	}
	var quoted []string
	var failed bool
	rewritten := docGolden.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := docGolden.FindStringSubmatch(block)
		name, body := m[1], m[2]
		quoted = append(quoted, name)
		if !known[name] {
			t.Errorf("%s quotes a golden for %q, which is not a registry entry", path, name)
			failed = true
			return block
		}
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		if body != string(want) && !*updateGoldens {
			t.Errorf("%s: the %s block differs from %s at %s", path, name, goldenPath(name), firstDiff(body, string(want)))
			failed = true
		}
		return "<!-- golden: " + name + " -->\n```text\n" + string(want) + "```\n"
	})
	if len(quoted) == 0 {
		t.Fatalf("%s quotes no golden blocks", path)
	}
	if *updateGoldens && !failed && rewritten != string(doc) {
		if err := os.WriteFile(path, []byte(rewritten), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(quoted)
	t.Logf("%s quotes %d goldens: %s", path, len(quoted), strings.Join(quoted, " "))
}
