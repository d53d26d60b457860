// Package lockcheck enforces the repository's *Locked calling
// convention and basic mutex hygiene, statically:
//
//   - A function or method whose name ends in "Locked" asserts that its
//     caller already holds the relevant mutex. Calling one without a
//     preceding mu.Lock()/RLock() in scope (or from within another
//     *Locked function) is a forgotten-lock bug.
//   - Conversely, calling a method that itself acquires the receiver's
//     mutex while that mutex is already held is a guaranteed deadlock
//     (sync.Mutex is not reentrant) — the static double-lock.
//   - Every mu.Lock()/RLock() must be paired with a defer mu.Unlock()
//     or an explicit unlock later in the same function; a function that
//     can return with the mutex held wedges every future locker.
//
// The rules read the per-function operation streams of the facts
// package, whose walk supplies the lock state at every call: locks
// taken in a conditionally-executed block do not outlive it, a
// function literal inherits a copy of the state where it appears, a
// goroutine body starts with nothing held, and a *Locked method starts
// with its receiver's mutexes held. Mutexes are matched by their
// source expression ("d.mu"), so the rules hold within one function;
// exotic flows can annotate //swaplint:ignore lockcheck <reason>.
//
// Unlike the interprocedural analyzers, lockcheck also covers test
// files and internal/simclock.
package lockcheck

import (
	"go/types"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/facts"
)

// New returns the lockcheck analyzer.
func New() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "lockcheck",
		Doc:  "enforce the *Locked suffix convention, detect double locks, and require Lock/Unlock pairing",
		Run:  run,
	}
}

func run(pass *lint.Pass) error {
	f := facts.Of(pass.Program)
	byKey := funcsByKey(pass.Program, f)
	for _, list := range [][]*facts.FuncFacts{f.Funcs, f.Unsummarized} {
		for _, ff := range list {
			if ff.Pkg.Types != pass.Pkg {
				continue
			}
			lockedFn := strings.HasSuffix(ff.Key, "Locked")
			for i := range ff.Ops {
				op := &ff.Ops[i]
				if op.Kind == facts.OpCall {
					checkLockedCall(pass, op, lockedFn)
					checkDoubleLock(pass, op, byKey[op.Callee])
				}
			}
			checkPairing(pass, ff)
		}
	}
	return nil
}

// funcsByKey indexes every walked function by its call-graph key.
func funcsByKey(prog *lint.Program, f *facts.Facts) map[string]*facts.FuncFacts {
	return prog.Cached("lockcheck.funcs", func() interface{} {
		m := make(map[string]*facts.FuncFacts, len(f.Funcs)+len(f.Unsummarized))
		for _, list := range [][]*facts.FuncFacts{f.Funcs, f.Unsummarized} {
			for _, ff := range list {
				if _, dup := m[ff.Key]; !dup {
					m[ff.Key] = ff
				}
			}
		}
		return m
	}).(map[string]*facts.FuncFacts)
}

// checkLockedCall enforces that *Locked callees see their mutex held: a
// method needs a mutex of its receiver held, a function any mutex (or a
// *Locked caller on the same goroutine).
func checkLockedCall(pass *lint.Pass, op *facts.Op, lockedFn bool) {
	if !strings.HasSuffix(op.Detail, "Locked") {
		return
	}
	if op.Recv == "" {
		if (lockedFn && !op.Concurrent) || len(op.Held) > 0 {
			return
		}
		pass.Reportf(op.Pos,
			"call to %s without any mutex held: the *Locked suffix requires the caller to hold the lock", op.Detail)
		return
	}
	for _, h := range op.Held {
		if h.Class.Expr == op.Recv || strings.HasPrefix(h.Class.Expr, op.Recv+".") {
			return
		}
	}
	pass.Reportf(op.Pos,
		"call to %s without holding %s's mutex: the *Locked suffix requires the caller to hold it",
		op.Detail, op.Recv)
}

// checkDoubleLock flags a call into a function that acquires a mutex
// the caller already holds. The callee's acquisitions are translated
// to the call site: its receiver (an embedded mutex) or a mutex field
// of it becomes the same expression on the call's receiver, and a
// package-level mutex stays itself.
func checkDoubleLock(pass *lint.Pass, op *facts.Op, callee *facts.FuncFacts) {
	if len(op.Held) == 0 || callee == nil {
		return
	}
	name := op.Callee[strings.LastIndex(op.Callee, ".")+1:]
	seen := make(map[string]bool)
	for i := range callee.Ops {
		acq := &callee.Ops[i]
		if acq.Kind != facts.OpAcquire || acq.InLit {
			continue
		}
		expr, key, global := acq.Class.Expr, "", false
		switch {
		case callee.Recv != "" && expr == callee.Recv:
			key = op.Recv
		case callee.Recv != "" && strings.HasPrefix(expr, callee.Recv+"."):
			if op.Recv != "" {
				key = op.Recv + strings.TrimPrefix(expr, callee.Recv)
			}
		case isPkgMutex(callee.Pkg.Types, expr) && acq.Class.Known():
			key, global = expr, true
		}
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		for _, h := range op.Held {
			if (global && h.Class.Name == acq.Class.Name) || (!global && h.Class.Expr == key) {
				pass.Reportf(op.Pos,
					"%s acquires %s which is already held here: guaranteed deadlock (sync mutexes are not reentrant)",
					name, key)
				break
			}
		}
	}
}

// isPkgMutex reports whether name is a package-level mutex of pkg.
func isPkgMutex(pkg *types.Package, name string) bool {
	if strings.Contains(name, ".") {
		return false
	}
	v, ok := pkg.Scope().Lookup(name).(*types.Var)
	return ok && lint.IsMutexType(v.Type())
}

// checkPairing requires every Lock/RLock to have a matching RUnlock or
// Unlock in the same function: a deferred one, one inside a function
// literal, or an explicit one after it.
func checkPairing(pass *lint.Pass, ff *facts.FuncFacts) {
	for i := range ff.Ops {
		l := &ff.Ops[i]
		if l.Kind != facts.OpAcquire || l.Class.Expr == "" {
			continue
		}
		paired := false
		for j := range ff.Ops {
			u := &ff.Ops[j]
			if u.Kind == facts.OpRelease && u.Class.Expr == l.Class.Expr && u.Read == l.Read && (u.Deferred || u.InLit || u.Pos > l.Pos) {
				paired = true
				break
			}
		}
		if paired {
			continue
		}
		verb, unlock := "Lock", "Unlock"
		if l.Read {
			verb, unlock = "RLock", "RUnlock"
		}
		pass.Reportf(l.Pos,
			"%s.%s() has no matching defer %s.%s() or later %s() in this function: a return path leaks the lock",
			l.Class.Expr, verb, l.Class.Expr, unlock, unlock)
	}
}
