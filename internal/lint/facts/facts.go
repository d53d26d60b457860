// Package facts is swaplint's one lock-state walker. It walks every
// function body the run loads once, records a per-function operation
// stream with the set of locks held at each operation, and computes
// interprocedural summaries — "may sleep on the clock", "may block
// outside the gate token protocol", "acquires these lock classes" —
// from it. gatecheck and lockorder combine the streams with the
// summaries.
//
// The walk is structural: statements at one nesting level update the
// lock state in source order, conditionally-executed blocks are walked
// against a copy, and a function literal starts from a copy of the
// state where it appears (a goroutine body from an empty one). It
// classifies three things at each step:
//
//   - lock operations, resolved to module-wide lock classes like
//     "core.Backend.swapMu" (owning named type + field, or package-level
//     variable, or a //swaplint:lockclass annotation for helpers that
//     return mutexes); a simclock.Mutex/RWMutex acquisition is gated
//     (clock-aware);
//   - intrinsic waits and blocks: simclock Clock.Sleep / Gate.Wait /
//     <-After advance the simulated clock; channel operations,
//     sync.WaitGroup.Wait, sync.Cond.Wait, network and subprocess calls
//     block outside the Gate token protocol unless wrapped in
//     Gate.BlockOn / Block / BlockIO;
//   - calls, resolved CHA-style through the callgraph package
//     (interface calls widen to every implementing type in the
//     program).
//
// Summaries then propagate bottom-up over the call graph's strongly
// connected components: a function may wait if it waits directly or
// any (non-concurrent) callee may; blocking reached through a
// Gate.Block edge is sanctioned and becomes a wait. Mutual recursion
// converges because an SCC's members share one combined summary.
//
// Test files and internal/simclock (the token protocol's own
// implementation, which manipulates its mutex across waits by design)
// are not walked; intrinsic classification of simclock calls does not
// depend on their bodies.
package facts

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
)

// OpKind classifies one collected operation.
type OpKind int

// Operation kinds.
const (
	// OpAcquire is a mutex Lock/RLock. Held is the lock set before the
	// acquisition; Gated means the mutex is clock-aware (simclock.Mutex
	// or RWMutex), so a waiter sheds its run token.
	OpAcquire OpKind = iota
	// OpWait advances the simulated clock: clock.Sleep, Gate.Wait,
	// <-clock.After, time.Sleep.
	OpWait
	// OpBlock parks the goroutine outside the clock: channel send/recv,
	// select without default, WaitGroup.Wait, network or subprocess
	// calls. Gated means it ran under Gate.Block/BlockOn/BlockIO and is
	// sanctioned (the run token was shed, so it counts as a wait).
	OpBlock
	// OpCall is a resolved call edge to an in-program function.
	OpCall
	// OpGateEnter and OpGateExit are raw Gate.Enter/Gate.Exit calls,
	// tracked for the pairing check.
	OpGateEnter
	OpGateExit
)

// Class identifies a mutex module-wide. Name is the canonical class
// ("core.Backend.swapMu", "core.Controller.evictSerial", a package
// variable "gpu.registryMu", or "core.machine" for a struct locking an
// embedded mutex); it is empty when the mutex cannot be attributed
// (a bare local or parameter), in which case Expr still renders the
// source expression for intra-function tracking and messages.
type Class struct {
	Name string
	Expr string
}

// Known reports whether the class resolved to a module-wide identity.
func (c Class) Known() bool { return c.Name != "" }

// key is the held-set tracking key: the module-wide name when known,
// otherwise the function-local expression.
func (c Class) key() string {
	if c.Name != "" {
		return c.Name
	}
	return "local:" + c.Expr
}

// String renders the class for diagnostics.
func (c Class) String() string {
	if c.Name == "" {
		return c.Expr
	}
	if c.Expr != "" && !strings.HasSuffix(c.Name, "."+c.Expr) {
		return c.Name + " (" + c.Expr + ")"
	}
	return c.Name
}

// HeldLock is one entry of the lock set at an operation, in
// acquisition order.
type HeldLock struct {
	Class Class
	Read  bool
	Gated bool
	Pos   token.Pos // acquisition site
}

// Op is one collected operation with its lock-state snapshot.
type Op struct {
	Kind  OpKind
	Pos   token.Pos
	Class Class // OpAcquire
	Read  bool  // OpAcquire: RLock
	Gated bool  // OpAcquire: clock-aware mutex; OpBlock: sanctioned
	// Concurrent marks operations inside `go` / Gate.Go bodies: they
	// run on a spawned goroutine, so they do not contribute to the
	// enclosing function's summary (the caller does not wait on them).
	Concurrent bool
	// Deferred marks `defer g.Exit()` for the pairing check.
	Deferred bool
	Callee   string // OpCall: callgraph key
	Detail   string // OpWait / OpBlock: human label ("clock.Sleep", "channel send")
	Held     []HeldLock
}

// FuncFacts is the operation stream of one function body (function
// literals are walked inline into their enclosing declaration).
type FuncFacts struct {
	Key     string
	Display string
	Pkg     *lint.Package
	Ops     []Op
}

// Facts is the program-wide result.
type Facts struct {
	fset *token.FileSet

	// Funcs lists every walked function in deterministic order
	// (package, then file, then declaration order).
	Funcs []*FuncFacts
	// Summaries maps function keys to their propagated summaries.
	Summaries map[string]*Summary
	// LockClasses maps annotated function keys to the class their
	// returned mutex belongs to (//swaplint:lockclass).
	LockClasses map[string]string
	// BlockAnnotations maps filename -> line -> true for well-formed
	// //swaplint:block reason=... directives.
	BlockAnnotations map[string]map[int]bool
	// MalformedBlockAnns lists //swaplint:block directives without a
	// reason, for gatecheck to report.
	MalformedBlockAnns []token.Pos
	// LockOrderDecls lists parsed //swaplint:lockorder declarations.
	LockOrderDecls []LockOrderDecl
}

// LockOrderDecl is one parsed //swaplint:lockorder A < B < C comment.
type LockOrderDecl struct {
	Pos     token.Pos
	File    string
	Classes []string // in declared before-to-after order
	Bad     bool     // malformed (fewer than two classes or no '<')
}

// Summary is a function's propagated interprocedural summary.
type Summary struct {
	// Wait is non-nil when calling the function may advance the
	// simulated clock (a sleep, a Gate.Wait, or sanctioned blocking
	// under Gate.Block), with one representative path.
	Wait *Trace
	// Block is non-nil when calling the function may block the
	// goroutine outside the gate token protocol.
	Block *Trace
	// Acquires maps lock-class names the function (transitively)
	// acquires to a representative acquisition path.
	Acquires map[string]*Acquire
}

// Acquire is one transitive acquisition with its path.
type Acquire struct {
	Trace Trace
	Read  bool
}

// Trace is a representative path to a terminal operation: the call
// steps from the summarized function down to it, then the terminal's
// label and position.
type Trace struct {
	Via    []Step
	Detail string
	Pos    token.Pos
}

// Step is one call hop of a trace.
type Step struct {
	Func string // display name of the callee
	Pos  token.Pos
}

// String renders "f → g → clock.Sleep".
func (t *Trace) String() string {
	var b strings.Builder
	for _, s := range t.Via {
		b.WriteString(s.Func)
		b.WriteString(" → ")
	}
	b.WriteString(t.Detail)
	return b.String()
}

// Prepend returns a copy of t with one leading call step, capping the
// retained chain so diagnostics stay readable.
func (t *Trace) Prepend(s Step) *Trace {
	const maxSteps = 8
	via := make([]Step, 0, len(t.Via)+1)
	via = append(via, s)
	via = append(via, t.Via...)
	if len(via) > maxSteps {
		via = via[:maxSteps]
	}
	return &Trace{Via: via, Detail: t.Detail, Pos: t.Pos}
}

// Of returns the program's facts, computed once per Program.
func Of(prog *lint.Program) *Facts {
	return prog.Cached("swaplint.facts", func() interface{} {
		return compute(prog)
	}).(*Facts)
}

// excludedPkg reports whether a package is skipped by collection.
func excludedPkg(path string) bool {
	return lint.PkgPathHasSuffix(path, "internal/simclock")
}

// compute walks every package and propagates summaries.
func compute(prog *lint.Program) *Facts {
	f := &Facts{
		fset:             prog.Fset,
		Summaries:        make(map[string]*Summary),
		LockClasses:      make(map[string]string),
		BlockAnnotations: make(map[string]map[int]bool),
	}
	f.collectDirectives(prog)

	res := callgraph.NewResolver(prog)
	for _, pkg := range prog.Packages {
		if pkg.Types == nil || pkg.Info == nil || excludedPkg(pkg.Types.Path()) {
			continue
		}
		for _, file := range pkg.Files {
			if isTestFile(prog.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := callgraph.Key(obj)
				ff := &FuncFacts{
					Key:     key,
					Display: callgraph.DisplayName(key),
					Pkg:     pkg,
				}
				w := &walker{
					facts: f, prog: prog, pkg: pkg, res: res, ff: ff,
					localClass: make(map[types.Object]Class),
				}
				w.walkBody(fd.Body, newHeldSet())
				f.Funcs = append(f.Funcs, ff)
			}
		}
	}
	f.propagate()
	return f
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}

// collectDirectives scans every file's comments for the facts-level
// directives: //swaplint:lockclass on function declarations,
// //swaplint:block suppressions, and //swaplint:lockorder
// declarations.
func (f *Facts) collectDirectives(prog *lint.Program) {
	for _, pkg := range prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "swaplint:lockclass") {
						continue
					}
					name := strings.TrimSpace(strings.TrimPrefix(text, "swaplint:lockclass"))
					if name == "" {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						f.LockClasses[callgraph.Key(obj)] = name
					}
				}
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					switch {
					case strings.HasPrefix(text, "swaplint:block"):
						rest := strings.TrimPrefix(text, "swaplint:block")
						pos := prog.Fset.Position(c.Pos())
						if !strings.Contains(rest, "reason=") || len(strings.TrimSpace(strings.SplitAfter(rest, "reason=")[1])) == 0 {
							f.MalformedBlockAnns = append(f.MalformedBlockAnns, c.Pos())
							continue
						}
						m := f.BlockAnnotations[pos.Filename]
						if m == nil {
							m = make(map[int]bool)
							f.BlockAnnotations[pos.Filename] = m
						}
						m[pos.Line] = true
					case strings.HasPrefix(text, "swaplint:lockorder"):
						rest := strings.TrimSpace(strings.TrimPrefix(text, "swaplint:lockorder"))
						decl := LockOrderDecl{
							Pos:  c.Pos(),
							File: prog.Fset.Position(c.Pos()).Filename,
						}
						for _, part := range strings.Split(rest, "<") {
							if name := strings.TrimSpace(part); name != "" {
								decl.Classes = append(decl.Classes, name)
							}
						}
						if len(decl.Classes) < 2 {
							decl.Bad = true
						}
						f.LockOrderDecls = append(f.LockOrderDecls, decl)
					}
				}
			}
		}
	}
}

// BlockAnnotated reports whether a well-formed //swaplint:block
// directive covers the position (same line or the line above).
func (f *Facts) BlockAnnotated(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	m := f.BlockAnnotations[p.Filename]
	if m == nil {
		return false
	}
	return m[p.Line] || m[p.Line-1]
}
