package facts

import (
	"go/ast"
	"go/types"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
)

// typeOf returns the static type of e, nil when unknown.
func (w *walker) typeOf(e ast.Expr) types.Type {
	return w.info().TypeOf(e)
}

// calleeOf resolves a call expression to the *types.Func it invokes:
// direct function calls, method calls (through Selections), and
// package-qualified calls. Calls through function-typed values resolve
// to nil.
func (w *walker) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := w.info().Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		return w.methodValueOf(fun)
	}
	return nil
}

// methodValueOf resolves a selector to the function it denotes — a
// method (via Selections) or a package-qualified function.
func (w *walker) methodValueOf(sel *ast.SelectorExpr) *types.Func {
	if s, ok := w.info().Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	if fn, ok := w.info().Uses[sel.Sel].(*types.Func); ok {
		return fn
	}
	return nil
}

// funcValueKey resolves an expression used as a function value (an
// argument to Gate.Run/Go/Block) to a call-graph key.
func (w *walker) funcValueKey(arg ast.Expr) (string, bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if fn, ok := w.info().Uses[e].(*types.Func); ok {
			return callgraph.Key(fn), true
		}
	case *ast.SelectorExpr:
		if fn := w.methodValueOf(e); fn != nil {
			return callgraph.Key(fn), true
		}
	}
	return "", false
}

// resolveCallees returns the call-graph keys a call may reach: the
// static callee for concrete calls, or every CHA implementation for
// interface-method calls.
func (w *walker) resolveCallees(call *ast.CallExpr) []string {
	fn := w.calleeOf(call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if iface, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return w.res.Implementations(iface, fn)
		}
	}
	return []string{callgraph.Key(fn)}
}

// mutexOpOf classifies fn as a mutex operation: kind is "Lock" or
// "Unlock", read marks the RLock/RUnlock variants.
func mutexOpOf(fn *types.Func) (kind string, read bool, ok bool) {
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil || !lint.IsMutexType(sig.Recv().Type()) {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock":
		return "Lock", false, true
	case "RLock":
		return "Lock", true, true
	case "Unlock":
		return "Unlock", false, true
	case "RUnlock":
		return "Unlock", true, true
	}
	return "", false, false
}

// isClockMutexOp reports whether fn is a method of simclock.Mutex or
// simclock.RWMutex.
func isClockMutexOp(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && lint.IsClockMutexType(sig.Recv().Type())
}

// recvInSimclock reports whether fn's receiver type is declared in a
// simclock package (the Clock interface or any implementation).
func recvInSimclock(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	var obj *types.TypeName
	switch tt := t.(type) {
	case *types.Named:
		obj = tt.Obj()
	default:
		return false
	}
	return obj.Pkg() != nil && lint.PkgPathHasSuffix(obj.Pkg().Path(), "internal/simclock")
}

// intrinsicOf classifies fn as a known wait or block primitive.
// Waits advance the simulated clock; blocks park the goroutine outside
// the gate protocol. Package paths are matched by suffix so linttest
// stub packages qualify.
func intrinsicOf(fn *types.Func) (detail string, kind OpKind, ok bool) {
	name := fn.Name()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	// Simulated-clock waits.
	if recvInSimclock(fn) {
		switch name {
		case "Sleep":
			return "clock.Sleep", OpWait, true
		}
	}
	if pkgPath == "time" {
		if name == "Sleep" {
			return "time.Sleep", OpWait, true
		}
	}

	// Raw blocking primitives.
	if lint.PkgPathHasSuffix(pkgPath, "sync") {
		if lint.RecvNamed(fn, "sync", "WaitGroup") && name == "Wait" {
			return "WaitGroup.Wait", OpBlock, true
		}
		if lint.RecvNamed(fn, "sync", "Cond") && name == "Wait" {
			return "Cond.Wait", OpBlock, true
		}
	}
	// simclock.Send drives a transport directly, as internal callers
	// do instead of http.Client.
	if lint.PkgPathHasSuffix(pkgPath, "internal/simclock") && name == "Send" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return "HTTP round trip", OpBlock, true
		}
	}
	if lint.PkgPathHasSuffix(pkgPath, "net/http") {
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip":
			return "HTTP round trip", OpBlock, true
		case "ListenAndServe", "ListenAndServeTLS", "Serve":
			return "HTTP serve", OpBlock, true
		}
	}
	if pkgPath == "net" || strings.HasSuffix(pkgPath, "/net") {
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenPacket":
			return "network " + name, OpBlock, true
		}
	}
	if lint.PkgPathHasSuffix(pkgPath, "os/exec") {
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "subprocess " + name, OpBlock, true
		}
	}
	return "", 0, false
}

// isClockAfter reports whether call is simclock Clock.After (or
// time.After), whose received value advances the simulated clock.
func (w *walker) isClockAfter(call *ast.CallExpr) bool {
	fn := w.calleeOf(call)
	if fn == nil {
		return false
	}
	if fn.Name() != "After" {
		return false
	}
	if recvInSimclock(fn) {
		return true
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// classOf resolves the mutex denoted by expression e (the receiver of
// a Lock/Unlock call or the operand of a method value) to its
// module-wide class. Resolution, in order:
//
//   - a struct field `x.mu` names "<pkg>.<Type>.mu" through the owning
//     named type;
//   - a package-level var names "<pkg>.<var>";
//   - an index expression `m[k]` resolves through its container (the
//     per-key mutexes of a map or slice share one class);
//   - a call to a //swaplint:lockclass-annotated helper names the
//     annotated class;
//   - a local whose class was tracked through an assignment reuses it;
//   - a named struct locking an embedded mutex names "<pkg>.<Type>";
//   - anything else is class-unknown (tracked intra-function by its
//     source expression only).
func (w *walker) classOf(e ast.Expr) Class {
	expr := lint.ExprString(e)
	c := w.classOfInner(e)
	if c.Expr == "" {
		c.Expr = expr
	}
	return c
}

func (w *walker) classOfInner(e ast.Expr) Class {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// Field selection: name through the owning named type.
		if sel, ok := w.info().Selections[e]; ok && sel.Kind() == types.FieldVal {
			owner := sel.Recv()
			if ptr, isPtr := owner.(*types.Pointer); isPtr {
				owner = ptr.Elem()
			}
			if named, isNamed := owner.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return Class{Name: shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + e.Sel.Name}
			}
			return Class{}
		}
		// Package-qualified var: pkg.muName.
		if obj, ok := w.info().Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return Class{Name: shortPkg(obj.Pkg().Path()) + "." + obj.Name()}
		}
		return Class{}
	case *ast.Ident:
		obj := w.info().Uses[e]
		if obj == nil {
			return Class{}
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return Class{Name: shortPkg(v.Pkg().Path()) + "." + v.Name()}
		}
		if c, ok := w.localClass[obj]; ok {
			return c
		}
		// A named struct with an embedded mutex locked by promotion:
		// class is the struct type itself.
		if t := w.typeOf(e); t != nil && !lint.IsMutexType(t) {
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return Class{Name: shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name()}
			}
		}
		return Class{}
	case *ast.IndexExpr:
		return w.classOfInner(e.X)
	case *ast.StarExpr:
		return w.classOfInner(e.X)
	case *ast.UnaryExpr:
		return w.classOfInner(e.X)
	case *ast.CallExpr:
		if fn := w.calleeOf(e); fn != nil {
			if name, ok := w.facts.LockClasses[callgraph.Key(fn)]; ok {
				return Class{Name: name}
			}
		}
		return Class{}
	}
	return Class{}
}

// shortPkg returns the last path segment of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
