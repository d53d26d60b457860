package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	ForTest     string
	DepOnly     bool
	Module      *struct{ Path string }
	Error       *struct{ Err string }
}

// Load enumerates the packages matching patterns under dir (via
// `go list`), parses each in-module package's source — including its
// in-package test files — and type-checks it against compiler export
// data, entirely offline. External (package foo_test) test files are
// not loaded; the conventions swaplint enforces bind implementations,
// and in-package tests, which share their state. A -overlay file named
// in GOFLAGS applies to the parsed sources as it does to the go
// command's builds.
func Load(dir string, patterns []string) (*token.FileSet, []*Package, error) {
	overlay, err := goflagsOverlay()
	if err != nil {
		return nil, nil, err
	}
	args := append([]string{"list", "-e", "-deps", "-test", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if derr := dec.Decode(&p); errors.Is(derr, io.EOF) {
			break
		} else if derr != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", derr)
		}
		if p.Export != "" {
			if _, dup := exports[p.ImportPath]; !dup {
				exports[p.ImportPath] = p.Export
			}
		}
		// Targets: in-module packages named by the patterns, skipping the
		// synthesized test variants ("pkg.test" binaries, "pkg [pkg.test]"
		// recompilations) — the plain entry lists TestGoFiles itself.
		if p.Module != nil && !p.DepOnly && p.ForTest == "" &&
			!strings.HasSuffix(p.ImportPath, ".test") && !strings.Contains(p.ImportPath, " [") {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil && len(t.GoFiles) == 0 {
			continue
		}
		names := append(append([]string{}, t.GoFiles...), t.CgoFiles...)
		names = append(names, t.TestGoFiles...)
		var files []*ast.File
		for _, name := range names {
			path := filepath.Join(t.Dir, name)
			var src interface{}
			if replacement, ok := overlay[path]; ok {
				if src, err = os.ReadFile(replacement); err != nil {
					return nil, nil, fmt.Errorf("lint: overlay: %w", err)
				}
			}
			af, perr := parser.ParseFile(fset, path, src, parser.ParseComments)
			if perr != nil {
				return nil, nil, fmt.Errorf("lint: %w", perr)
			}
			files = append(files, af)
		}
		pkg := &Package{ImportPath: t.ImportPath, Dir: t.Dir, Files: files}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		tpkg, _ := conf.Check(t.ImportPath, fset, files, info)
		pkg.Types = tpkg
		pkg.Info = info
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

// goflagsOverlay reads the Replace map (keyed by absolute path) of the
// -overlay file GOFLAGS names, if any.
func goflagsOverlay() (map[string]string, error) {
	for _, flag := range strings.Fields(os.Getenv("GOFLAGS")) {
		file, ok := strings.CutPrefix(strings.TrimLeft(flag, "-"), "overlay=")
		if !ok {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("lint: overlay: %w", err)
		}
		var o struct{ Replace map[string]string }
		if err := json.Unmarshal(data, &o); err != nil {
			return nil, fmt.Errorf("lint: overlay %s: %w", file, err)
		}
		return o.Replace, nil
	}
	return nil, nil
}
