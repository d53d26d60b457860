// Package gatecheck enforces the virtual-time gate discipline
// interprocedurally. Its rules share one aim: a goroutine never parks
// out of the clock's sight, whether across a clock wait or inside a
// critical section.
//
//   - Any mutex that can be held while the simulated clock advances — a
//     clock.Sleep, Gate.Wait, <-clock.After, or sanctioned gate blocking
//     reached on any call path — must be a simclock.Mutex or
//     simclock.RWMutex at EVERY acquisition site module-wide, so
//     goroutines contending on it park through the gate, shed their run
//     token, and get the lock in arrival order. One sync acquisition is
//     enough to deadlock the advancer: the waiter parks invisibly while
//     holding its token.
//   - No channel send/receive, select, sync.WaitGroup.Wait, network or
//     subprocess call may be reachable, directly or through any call
//     chain, while a mutex is held, unless it runs under
//     Gate.BlockOn/Block/BlockIO (which shed the run token) or the site
//     carries a //swaplint:block annotation (below). A goroutine that
//     parks inside a critical section without shedding its token stalls
//     quiescence detection for the whole process; one that parks while
//     another goroutine needs its lock to finish deadlocks the advancer.
//   - internal/ code outside tests makes no plain Gate.Block or
//     Gate.BlockIO call: the clock cannot probe those waits, so each
//     costs a settle pass. Waits use BlockOn with an exact ready check,
//     simclock.Group, or a clock-aware mutex.
//   - Gate.Enter must be followed by Gate.Exit (or a deferred Exit) in
//     the same body.
//
// The mutex check is class-level: the facts package attributes each
// mutex to a module-wide lock class (owning type + field); if
// wait-across-hold evidence exists anywhere for a class, every
// acquisition that is not clock-aware is reported, with a
// representative wait path naming the call chain down to the sleep.
//
// A blocking site whose author certifies it cannot stall the gate is
// annotated on its line or the line above; the reason is mandatory:
//
//	//swaplint:block reason=<why this cannot stall the gate>
package gatecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
	"swapservellm/internal/lint/facts"
)

// New returns the gatecheck analyzer.
func New() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "gatecheck",
		Doc:  "mutexes held across simulated-clock waits must be simclock.Mutex/RWMutex at every site; no plain Gate.Block/BlockIO in internal code; Gate.Enter/Exit must pair; no ungated blocking inside a critical section unless annotated //swaplint:block reason=...",
		Run:  run,
	}
}

// waitEvidence is one representative "class held across a wait" path.
type waitEvidence struct {
	path string         // "(*Scheduler).EnsureRunning → clock.Sleep"
	pos  token.Position // position of the terminal wait
}

// acqSite is one acquisition of a known class.
type acqSite struct {
	class string
	pos   token.Pos
	gated bool
	pkg   *types.Package
	expr  string
}

// blockSite is one ungated, unannotated block inside a critical
// section.
type blockSite struct {
	pos token.Pos
	pkg *types.Package
	msg string
}

type global struct {
	evidence map[string]*waitEvidence
	acquires []acqSite
	blocks   []blockSite
}

func analyze(prog *lint.Program) *global {
	return prog.Cached("gatecheck.global", func() interface{} {
		f := facts.Of(prog)
		g := &global{evidence: make(map[string]*waitEvidence)}
		record := func(held []facts.HeldLock, path string, pos token.Pos) {
			for _, h := range held {
				if !h.Class.Known() {
					continue
				}
				if _, ok := g.evidence[h.Class.Name]; !ok {
					g.evidence[h.Class.Name] = &waitEvidence{path: path, pos: prog.Fset.Position(pos)}
				}
			}
		}
		for _, ff := range f.Funcs {
			for i := range ff.Ops {
				op := &ff.Ops[i]
				switch op.Kind {
				case facts.OpAcquire:
					if op.Class.Known() {
						g.acquires = append(g.acquires, acqSite{
							class: op.Class.Name, pos: op.Pos, gated: op.Gated,
							pkg: ff.Pkg.Types, expr: op.Class.Expr,
						})
					}
				case facts.OpWait:
					record(op.Held, ff.Display+" → "+op.Detail, op.Pos)
				case facts.OpBlock:
					if op.Gated {
						record(op.Held, ff.Display+" → "+op.Detail, op.Pos)
					} else if len(op.Held) > 0 && !f.BlockAnnotated(prog.Fset, op.Pos) {
						g.blocks = append(g.blocks, blockSite{pos: op.Pos, pkg: ff.Pkg.Types,
							msg: op.Detail + " while holding " + heldDesc(op.Held) + "; wrap it in gate.BlockOn or annotate //swaplint:block reason=..."})
					}
				case facts.OpCall:
					sum := f.Summaries[op.Callee]
					if sum == nil {
						continue
					}
					step := facts.Step{Func: callgraph.DisplayName(op.Callee), Pos: op.Pos}
					if sum.Wait != nil {
						t := sum.Wait.Prepend(step)
						record(op.Held, ff.Display+" → "+t.String(), t.Pos)
					} else if op.Gated && sum.Block != nil {
						t := sum.Block.Prepend(step)
						record(op.Held, ff.Display+" → "+t.String(), t.Pos)
					}
					if sum.Block != nil && !op.Gated && !op.Concurrent && len(op.Held) > 0 && !f.BlockAnnotated(prog.Fset, op.Pos) {
						t := sum.Block.Prepend(step)
						g.blocks = append(g.blocks, blockSite{pos: op.Pos, pkg: ff.Pkg.Types,
							msg: "call may block (" + t.String() + " at " + lint.ShortPos(prog.Fset.Position(t.Pos)) + ") while holding " + heldDesc(op.Held) + "; gate the call or annotate //swaplint:block reason=..."})
					}
				}
			}
		}
		return g
	}).(*global)
}

func run(pass *lint.Pass) error {
	g := analyze(pass.Program)
	for _, a := range g.acquires {
		if a.pkg != pass.Pkg || a.gated {
			continue
		}
		ev := g.evidence[a.class]
		if ev == nil {
			continue
		}
		expr := a.expr
		if expr == "" {
			expr = a.class
		}
		pass.Reportf(a.pos, "mutex %s can be held across a simulated-clock wait (%s at %s) but %s is not clock-aware; make it a simclock.Mutex or simclock.RWMutex so waiters shed their run token",
			a.class, ev.path, lint.ShortPos(ev.pos), expr)
	}
	for _, b := range g.blocks {
		if b.pkg == pass.Pkg {
			pass.Reportf(b.pos, "%s", b.msg)
		}
	}
	for _, pos := range facts.Of(pass.Program).MalformedBlockAnns {
		if pass.InFiles(pos) {
			pass.Reportf(pos, "malformed directive: want //swaplint:block reason=<why this cannot stall the gate>")
		}
	}
	checkJoins(pass)
	checkPairing(pass)
	return nil
}

// heldDesc names the most recently acquired lock of the critical
// section.
func heldDesc(held []facts.HeldLock) string {
	s := held[len(held)-1].Class.String()
	if n := len(held) - 1; n == 1 {
		s += " (and 1 other lock)"
	} else if n > 1 {
		s += fmt.Sprintf(" (and %d other locks)", n)
	}
	return s
}

// checkJoins reports plain Gate.Block and Gate.BlockIO calls in the
// non-test files of an internal/ package.
func checkJoins(pass *lint.Pass) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "internal/") && !strings.Contains(path, "/internal/") {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && lint.IsGateMethod(fn, "Block", "BlockIO") {
				pass.Reportf(call.Pos(), "plain Gate.%s in internal code: the clock cannot probe it, so every advance while it waits may pay a settle pass; use Gate.BlockOn with an exact ready check, simclock.Group, or a simclock.Mutex", sel.Sel.Name)
			}
			return true
		})
	}
}

// checkPairing verifies Gate.Enter/Exit pairing per function body in
// this package: every Enter needs a later explicit Exit or a deferred
// Exit recorded anywhere in the body.
func checkPairing(pass *lint.Pass) {
	f := facts.Of(pass.Program)
	for _, ff := range f.Funcs {
		if ff.Pkg.Types != pass.Pkg {
			continue
		}
		var enters []token.Pos
		var exits []token.Pos
		deferredExits := 0
		for _, op := range ff.Ops {
			switch op.Kind {
			case facts.OpGateEnter:
				enters = append(enters, op.Pos)
			case facts.OpGateExit:
				if op.Deferred {
					deferredExits++
				} else {
					exits = append(exits, op.Pos)
				}
			}
		}
		if len(enters) == 0 {
			continue
		}
		sort.Slice(exits, func(i, j int) bool { return exits[i] < exits[j] })
		used := make([]bool, len(exits))
		for _, enter := range enters {
			matched := false
			for i, exit := range exits {
				if !used[i] && exit > enter {
					used[i] = true
					matched = true
					break
				}
			}
			if !matched && deferredExits > 0 {
				deferredExits--
				matched = true
			}
			if !matched {
				pass.Reportf(enter, "Gate.Enter without a matching Gate.Exit in %s; defer g.Exit() immediately after Enter so the gate's goroutine accounting balances on all paths", ff.Display)
			}
		}
	}
}
