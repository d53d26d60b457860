// Package linttest is a hermetic golden-test harness for swaplint
// analyzers, modelled on golang.org/x/tools/go/analysis/analysistest
// but with no dependencies outside the standard library.
//
// An analyzer's test data lives under <analyzer>/testdata/src/<path>,
// where <path> is the fake package's import path. Expected findings are
// declared on the offending line with
//
//	// want "regexp" ["regexp" ...]
//
// Each diagnostic on a line must match one want pattern and vice versa.
// Imports resolve against the analyzer's own testdata/src first, then
// against the shared stub tree in linttest/testdata/stubs/src (tiny
// source replicas of time, sync and simclock, sufficient for
// type-checking).
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"swapservellm/internal/lint"
)

// Run analyzes each listed fake package (paths under testdata/src,
// e.g. "example.com/clocks") with the analyzer, runs its Finish hook,
// and compares diagnostics against the // want comments in those
// packages' files.
func Run(t *testing.T, testdataDir string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset, pkgs := Load(t, testdataDir, pkgPaths...)
	diags := lint.NewRunner(a).Run(fset, pkgs)
	checkWants(t, fset, pkgs, diags)
}

// Diagnostics analyzes the listed fake packages and returns the raw
// diagnostics without want-comment matching — for cases where the
// finding lands on a directive comment's own line, which cannot also
// carry a want comment.
func Diagnostics(t *testing.T, testdataDir string, a *lint.Analyzer, pkgPaths ...string) []lint.Diagnostic {
	t.Helper()
	fset, pkgs := Load(t, testdataDir, pkgPaths...)
	return lint.NewRunner(a).Run(fset, pkgs)
}

// Load parses and type-checks the listed testdata packages against the
// shared stub tree, returning them with their FileSet — for tests that
// consult lint.Program facilities (call graph, facts) directly rather
// than running an analyzer.
func Load(t *testing.T, testdataDir string, pkgPaths ...string) (*token.FileSet, []*lint.Package) {
	t.Helper()
	fset := token.NewFileSet()
	imp := newSrcImporter(fset, []string{
		filepath.Join(testdataDir, "src"),
		stubRoot(t),
	})

	var pkgs []*lint.Package
	for _, path := range pkgPaths {
		dir := filepath.Join(testdataDir, "src", filepath.FromSlash(path))
		files, err := parseDir(fset, dir)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, &lint.Package{ImportPath: path, Dir: dir, Files: files, Types: tpkg, Info: info})
	}
	return fset, pkgs
}

// checkWants matches diagnostics against want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	type wantKey struct {
		file string
		line int
	}
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, pat := range splitQuoted(t, strings.TrimPrefix(text, "want ")) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						k := wantKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", d.Pos, d.Message, d.Analyzer)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	keys := make([]wantKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// splitQuoted parses `"a" "b"` (or backtick-quoted patterns) into its
// quoted segments.
func splitQuoted(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("bad want syntax: %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("unterminated want pattern: %q", s)
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}

// stubRoot locates linttest/stubs/src relative to this source file.
func stubRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("linttest: cannot locate stub packages")
	}
	return filepath.Join(filepath.Dir(file), "testdata", "stubs", "src")
}

// parseDir parses every .go file in dir (sorted for determinism).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// srcImporter type-checks imports from source found under its roots,
// caching results. It implements types.Importer.
type srcImporter struct {
	fset  *token.FileSet
	roots []string
	pkgs  map[string]*types.Package
}

func newSrcImporter(fset *token.FileSet, roots []string) *srcImporter {
	return &srcImporter{fset: fset, roots: roots, pkgs: make(map[string]*types.Package)}
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	var lastErr error
	for _, root := range im.roots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		files, err := parseDir(im.fset, dir)
		if err != nil {
			lastErr = err
			continue
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, files, nil)
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = pkg
		return pkg, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, &importError{path}
}

// Fall back to the real compiler importer? No: tests must be hermetic,
// so a missing stub is a loud failure naming the path to add.
type importError struct{ path string }

func (e *importError) Error() string {
	return "linttest: no stub package for import " + e.path + " (add one under testdata/src or linttest/testdata/stubs/src)"
}

// ensure interface compliance
var _ types.Importer = (*srcImporter)(nil)
