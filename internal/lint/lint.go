// Package lint is a self-contained static-analysis framework — a small
// stdlib-only analogue of golang.org/x/tools/go/analysis — that hosts
// the swaplint analyzer suite enforcing this repository's concurrency,
// determinism, and fault-site invariants:
//
//   - clockcheck: no direct wall-clock calls in deterministic packages
//     (use internal/simclock).
//   - ctxcheck: exported functions in traced packages take
//     context.Context as the first parameter; contexts are never stored
//     in struct fields.
//   - lockcheck: the *Locked calling convention, double-lock detection,
//     and Lock/Unlock pairing.
//   - sitecheck: chaos fault-site strings must resolve to registered
//     chaos.Site constants.
//   - statecheck: annotated state-machine fields are written only
//     through their declared transition functions.
//   - errwrap: fmt.Errorf error operands use %w; error comparisons use
//     errors.Is / errors.As.
//
// Findings can be suppressed with a directive on (or immediately above)
// the offending line:
//
//	//swaplint:ignore <analyzer> <reason>
//
// The analyzer field may name one analyzer or be "all"; the reason is
// mandatory — a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Run is invoked once per loaded package;
// Finish, when set, is invoked once after every package has been
// analyzed, for whole-program checks (e.g. unused fault sites).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish runs after all packages. It may call pass.Reportf with
	// positions collected during the per-package runs.
	Finish func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker errors (best-effort loading).
	TypeErrors []error
}

// Program is the whole set of packages one Runner.Run call analyzes,
// shared by every pass. Interprocedural facilities (the call graph,
// per-function blocking summaries) hang off it through Cached, so they
// are built once per run no matter how many analyzers consult them.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	mu    sync.Mutex
	cache map[string]interface{}
}

// Cached returns the value memoized under key, invoking build on the
// first request. Analyzers use it to share one derived structure (e.g.
// the interprocedural call graph) across packages and analyzer
// instances without recomputation.
func (p *Program) Cached(key string, build func() interface{}) interface{} {
	p.mu.Lock()
	if p.cache == nil {
		p.cache = make(map[string]interface{})
	}
	if v, ok := p.cache[key]; ok {
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	// Build without the lock held: builders may themselves call Cached
	// (an analyzer's derived structure consulting the shared facts). Two
	// concurrent first requests may both build; the first store wins.
	v := build()
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.cache[key]; ok {
		return prev
	}
	p.cache[key] = v
	return v
}

// Pass carries one analyzer's view of one package. During Finish the
// package-specific fields (Files, Pkg, Info) are nil. Program is always
// set and spans every package of the run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Program  *Program

	runner *Runner
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.runner.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.runner.diags = append(p.runner.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// InFiles reports whether pos lies in one of the pass's files.
func (p *Pass) InFiles(pos token.Pos) bool {
	name := p.Fset.Position(pos).Filename
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename == name {
			return true
		}
	}
	return false
}

// ignoreDirective is one parsed //swaplint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
	reason   string
	pos      token.Pos
}

// Runner executes a set of analyzers over loaded packages and collects
// their diagnostics.
type Runner struct {
	Analyzers []*Analyzer

	fset *token.FileSet
	// ignores maps filename -> line -> directives covering that line.
	ignores map[string]map[int][]ignoreDirective
	diags   []Diagnostic
}

// NewRunner builds a runner for the given analyzers.
func NewRunner(analyzers ...*Analyzer) *Runner {
	return &Runner{Analyzers: analyzers}
}

// Run analyzes every package with every analyzer, then runs Finish
// hooks, returning diagnostics sorted by position. Packages must share
// fset.
func (r *Runner) Run(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	r.fset = fset
	r.ignores = make(map[string]map[int][]ignoreDirective)
	r.diags = nil
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			r.indexIgnores(f)
		}
	}
	prog := &Program{Fset: fset, Packages: pkgs}
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Program: prog, runner: r}
			if err := a.Run(pass); err != nil {
				r.diags = append(r.diags, Diagnostic{
					Pos:      token.Position{Filename: pkg.ImportPath},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	for _, a := range r.Analyzers {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Program: prog, runner: r}
		if err := a.Finish(pass); err != nil {
			r.diags = append(r.diags, Diagnostic{Analyzer: a.Name, Message: fmt.Sprintf("internal error: %v", err)})
		}
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	// Drop exact duplicates (an analyzer may visit shared positions from
	// both the per-package and Finish phases).
	out := r.diags[:0]
	for i, d := range r.diags {
		if i == 0 || d != r.diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// indexIgnores parses every swaplint:ignore directive in f and reports
// malformed ones as findings of the pseudo-analyzer "swaplint".
func (r *Runner) indexIgnores(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "swaplint:ignore") {
				continue
			}
			rest := strings.TrimPrefix(text, "swaplint:ignore")
			fields := strings.Fields(rest)
			pos := r.fset.Position(c.Pos())
			if len(fields) < 2 {
				r.diags = append(r.diags, Diagnostic{
					Pos:      pos,
					Analyzer: "swaplint",
					Message:  "malformed directive: want //swaplint:ignore <analyzer> <reason>",
				})
				continue
			}
			dir := ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " "), pos: c.Pos()}
			m := r.ignores[pos.Filename]
			if m == nil {
				m = make(map[int][]ignoreDirective)
				r.ignores[pos.Filename] = m
			}
			m[pos.Line] = append(m[pos.Line], dir)
		}
	}
}

// suppressed reports whether a directive on the diagnostic's line (or
// the line immediately above) covers the analyzer.
func (r *Runner) suppressed(analyzer string, pos token.Position) bool {
	m := r.ignores[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range m[line] {
			if d.analyzer == analyzer || d.analyzer == "all" {
				return true
			}
		}
	}
	return false
}

// --- shared type helpers used by several analyzers ---

// ExprString renders a selector/identifier chain ("d.mu", "c.reg") for
// use as a lock-state key; non-chain expressions render as "".
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := ExprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return ExprString(e.X)
	}
	return ""
}

// IsMutexType reports whether t (or what it points to) is sync.Mutex,
// sync.RWMutex, or one of their clock-aware counterparts (see
// IsClockMutexType).
func IsMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || (obj.Pkg().Path() != "sync" && !PkgPathHasSuffix(obj.Pkg().Path(), "internal/simclock")) {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// IsClockMutexType reports whether t (or what it points to) is
// simclock.Mutex or simclock.RWMutex, whose contended Lock parks through
// the clock's gate.
func IsClockMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return NamedTypeIn(t, "internal/simclock", "Mutex") || NamedTypeIn(t, "internal/simclock", "RWMutex")
}

// RecvNamed reports whether fn is a method on the named type
// pkgSuffix.name (pointer receivers included).
func RecvNamed(fn *types.Func, pkgSuffix, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	return NamedTypeIn(t, pkgSuffix, name)
}

// IsGateMethod reports whether fn is the simclock.Gate method of one of
// the given names.
func IsGateMethod(fn *types.Func, names ...string) bool {
	for _, name := range names {
		if fn.Name() == name {
			return RecvNamed(fn, "internal/simclock", "Gate")
		}
	}
	return false
}

// ShortPos renders a position as "file.go:line", without the directory.
func ShortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// PkgPathHasSuffix reports whether path equals suffix or ends with
// "/"+suffix — matching both real import paths and testdata fakes.
func PkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// NamedTypeIn reports whether t is the named type pkgSuffix.name (the
// package matched by import-path suffix).
func NamedTypeIn(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PkgPathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}
