// Package blockcheck forbids blocking outside the gate token protocol
// while inside a critical section: no channel send/receive, select,
// sync.WaitGroup.Wait, network, or subprocess call may be reachable —
// directly or through any call chain — while a mutex is held, unless
// it runs under simclock.Gate.BlockOn/Block/BlockIO (which shed the run
// token) or the site carries an explicit annotation:
//
//	//swaplint:block reason=<why this cannot stall the gate>
//
// A goroutine that parks inside a critical section without shedding
// its token stalls virtual-time quiescence detection for the whole
// process; one that parks while another goroutine needs its lock to
// finish deadlocks the advancer. The interprocedural summaries come
// from the facts package; blocking reached behind the gate is
// already reclassified as a sanctioned wait there and is gatecheck's
// concern, not this analyzer's.
package blockcheck

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
	"swapservellm/internal/lint/facts"
)

// New returns the blockcheck analyzer.
func New() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "blockcheck",
		Doc:  "no channel, WaitGroup, network, or subprocess blocking inside a critical section unless gated or annotated //swaplint:block reason=...",
		Run:  run,
	}
}

type finding struct {
	pos token.Pos
	pkg *types.Package
	msg string
}

type global struct {
	findings []finding
}

func analyze(prog *lint.Program) *global {
	return prog.Cached("blockcheck.global", func() interface{} {
		f := facts.Of(prog)
		g := &global{}
		for _, ff := range f.Funcs {
			for i := range ff.Ops {
				op := &ff.Ops[i]
				if len(op.Held) == 0 || op.Gated {
					continue
				}
				switch op.Kind {
				case facts.OpBlock:
					if f.BlockAnnotated(prog.Fset, op.Pos) {
						continue
					}
					g.findings = append(g.findings, finding{
						pos: op.Pos, pkg: ff.Pkg.Types,
						msg: op.Detail + " while holding " + heldDesc(op.Held) + "; wrap it in gate.BlockOn or annotate //swaplint:block reason=...",
					})
				case facts.OpCall:
					if op.Concurrent {
						continue
					}
					sum := f.Summaries[op.Callee]
					if sum == nil || sum.Block == nil {
						continue
					}
					if f.BlockAnnotated(prog.Fset, op.Pos) {
						continue
					}
					t := sum.Block.Prepend(facts.Step{Func: callgraph.DisplayName(op.Callee), Pos: op.Pos})
					g.findings = append(g.findings, finding{
						pos: op.Pos, pkg: ff.Pkg.Types,
						msg: "call may block (" + t.String() + " at " + shortPos(prog.Fset.Position(t.Pos)) + ") while holding " + heldDesc(op.Held) + "; gate the call or annotate //swaplint:block reason=...",
					})
				}
			}
		}
		return g
	}).(*global)
}

func run(pass *lint.Pass) error {
	g := analyze(pass.Program)
	for _, fd := range g.findings {
		if fd.pkg == pass.Pkg {
			pass.Reportf(fd.pos, "%s", fd.msg)
		}
	}
	f := facts.Of(pass.Program)
	for _, pos := range f.MalformedBlockAnns {
		if fileInPass(pass, pos) {
			pass.Reportf(pos, "malformed directive: want //swaplint:block reason=<why this cannot stall the gate>")
		}
	}
	return nil
}

// heldDesc names the most recently acquired lock of the critical
// section.
func heldDesc(held []facts.HeldLock) string {
	h := held[len(held)-1]
	s := h.Class.String()
	if n := len(held) - 1; n == 1 {
		s += " (and 1 other lock)"
	} else if n > 1 {
		s += fmt.Sprintf(" (and %d other locks)", n)
	}
	return s
}

func fileInPass(pass *lint.Pass, pos token.Pos) bool {
	name := pass.Fset.Position(pos).Filename
	for _, f := range pass.Files {
		if pass.Fset.Position(f.Pos()).Filename == name {
			return true
		}
	}
	return false
}

func shortPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
