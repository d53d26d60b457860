package facts

import (
	"go/ast"
	"go/token"
	"go/types"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
)

// heldSet tracks the locks held at the current point of the walk, in
// acquisition order.
type heldSet struct {
	locks []HeldLock
}

func newHeldSet() *heldSet { return &heldSet{} }

func (h *heldSet) copyHeld() *heldSet {
	cp := make([]HeldLock, len(h.locks))
	copy(cp, h.locks)
	return &heldSet{locks: cp}
}

func (h *heldSet) snapshot() []HeldLock {
	if len(h.locks) == 0 {
		return nil
	}
	cp := make([]HeldLock, len(h.locks))
	copy(cp, h.locks)
	return cp
}

func (h *heldSet) acquire(l HeldLock) { h.locks = append(h.locks, l) }

// release removes the most recent matching acquisition.
func (h *heldSet) release(c Class) {
	key := c.key()
	for i := len(h.locks) - 1; i >= 0; i-- {
		if h.locks[i].Class.key() == key {
			h.locks = append(h.locks[:i], h.locks[i+1:]...)
			return
		}
	}
}

// walker collects one function's operation stream. The gated flag is
// set while walking the body of a closure passed to Gate.Block (its
// blocking is sanctioned); the concurrent flag while walking bodies
// spawned on their own goroutine (`go` statements, Gate.Go).
type walker struct {
	facts *Facts
	prog  *lint.Program
	pkg   *lint.Package
	res   *callgraph.Resolver
	ff    *FuncFacts

	gated      bool
	concurrent bool
	// inLit is set while walking a function literal's body, which may
	// run at any point relative to the enclosing body.
	inLit bool

	// localClass remembers lock classes flowing through local
	// variables: `lock := ct.evictLock(id)` with an annotated helper,
	// or `mu := &s.mu` aliases.
	localClass map[types.Object]Class
}

func (w *walker) info() *types.Info { return w.pkg.Info }

func (w *walker) emit(op Op) {
	op.Concurrent = op.Concurrent || w.concurrent
	op.InLit = w.inLit
	w.ff.Ops = append(w.ff.Ops, op)
}

// walkBody processes a statement list against held.
func (w *walker) walkBody(body *ast.BlockStmt, held *heldSet) {
	if body == nil {
		return
	}
	for _, stmt := range body.List {
		w.walkStmt(stmt, held)
	}
}

// walkLit walks a function literal's body against held.
func (w *walker) walkLit(lit *ast.FuncLit, held *heldSet) {
	prev := w.inLit
	w.inLit = true
	w.walkBody(lit.Body, held)
	w.inLit = prev
}

// walkConcurrentLit walks a function literal spawned on its own
// goroutine: it starts with no locks held and does not contribute to
// the enclosing function's summary.
func (w *walker) walkConcurrentLit(lit *ast.FuncLit) {
	prev := w.concurrent
	w.concurrent = true
	w.walkLit(lit, newHeldSet())
	w.concurrent = prev
}

// walkStmt updates held in source order for statements at one nesting
// level; conditionally-executed blocks are walked against a copy so
// their acquisitions do not leak out.
func (w *walker) walkStmt(stmt ast.Stmt, held *heldSet) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.walkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			w.walkExpr(lhs, held)
		}
		w.trackLocalClass(s, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held)
		w.walkExpr(s.Value, held)
		w.emit(Op{Kind: OpBlock, Pos: s.Arrow, Detail: "channel send", Gated: w.gated, Held: held.snapshot()})
	case *ast.IncDecStmt:
		w.walkExpr(s.X, held)
	case *ast.GoStmt:
		w.walkConcurrentCall(s.Call, held)
	case *ast.DeferStmt:
		w.walkDefer(s, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkExpr(s.Cond, held)
		w.walkBody(s.Body, held.copyHeld())
		if s.Else != nil {
			w.walkStmt(s.Else, held.copyHeld())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, held)
		}
		body := held.copyHeld()
		w.walkBody(s.Body, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		if t := w.typeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.emit(Op{Kind: OpBlock, Pos: s.For, Detail: "range over channel", Gated: w.gated, Held: held.snapshot()})
			}
		}
		w.walkBody(s.Body, held.copyHeld())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				branch := held.copyHeld()
				for _, e := range cc.List {
					w.walkExpr(e, branch)
				}
				for _, st := range cc.Body {
					w.walkStmt(st, branch)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				branch := held.copyHeld()
				for _, st := range cc.Body {
					w.walkStmt(st, branch)
				}
			}
		}
	case *ast.SelectStmt:
		w.walkSelect(s, held)
	case *ast.BlockStmt:
		w.walkBody(s, held)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	}
}

// walkSelect classifies the select itself (a clock wait when a case
// receives from Clock.After/time.After, non-blocking with a default,
// otherwise a raw block) and walks the clause bodies. The comm
// operations themselves are covered by the select-level op and not
// emitted individually.
func (w *walker) walkSelect(s *ast.SelectStmt, held *heldSet) {
	hasDefault := false
	waitsOnClock := false
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if recv := commRecv(cc.Comm); recv != nil {
			if call, ok := recv.X.(*ast.CallExpr); ok && w.isClockAfter(call) {
				waitsOnClock = true
			}
		}
	}
	switch {
	case waitsOnClock:
		w.emit(Op{Kind: OpWait, Pos: s.Select, Detail: "select on clock.After", Held: held.snapshot()})
	case !hasDefault:
		w.emit(Op{Kind: OpBlock, Pos: s.Select, Detail: "select", Gated: w.gated, Held: held.snapshot()})
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		branch := held.copyHeld()
		// Walk nested calls inside the comm expression (e.g. the After
		// argument) without re-emitting the channel operation.
		if cc.Comm != nil {
			if recv := commRecv(cc.Comm); recv != nil {
				if call, ok := recv.X.(*ast.CallExpr); ok {
					for _, arg := range call.Args {
						w.walkExpr(arg, branch)
					}
				}
			}
		}
		for _, st := range cc.Body {
			w.walkStmt(st, branch)
		}
	}
}

// commRecv extracts the `<-ch` expression of a select comm statement.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	var expr ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		expr = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			expr = c.Rhs[0]
		}
	}
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// walkDefer records deferred gate exits and unlocks, and treats other
// deferred calls as running with the lock state at the defer
// statement. A deferred unlock leaves held as it is: the lock stays
// held until the function returns, which is the sound direction for
// wait/block evidence.
func (w *walker) walkDefer(s *ast.DeferStmt, held *heldSet) {
	if fn := w.calleeOf(s.Call); fn != nil {
		if lint.IsGateMethod(fn, "Exit") {
			w.emit(Op{Kind: OpGateExit, Pos: s.Call.Pos(), Deferred: true})
			return
		}
		if kind, read, ok := mutexOpOf(fn); ok && kind == "Unlock" {
			if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
				w.emit(Op{Kind: OpRelease, Pos: s.Pos(), Class: w.classOf(sel.X), Read: read, Deferred: true})
			}
			return
		}
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		w.walkLit(lit, held.copyHeld())
		return
	}
	w.walkCallExpr(s.Call, held)
}

// walkConcurrentCall handles `go f(args)`: arguments are evaluated on
// the current goroutine, the call body runs with an empty lock set and
// does not contribute to the caller's summary.
func (w *walker) walkConcurrentCall(call *ast.CallExpr, held *heldSet) {
	for _, arg := range call.Args {
		w.walkExpr(arg, held)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.walkConcurrentLit(lit)
		return
	}
	w.walkExpr(call.Fun, held)
	w.emitCalls(call, Op{Concurrent: true})
}

// emitCalls records one OpCall per resolved callee of call, each
// carrying op's flags and lock state.
func (w *walker) emitCalls(call *ast.CallExpr, op Op) {
	op.Kind, op.Pos, op.Detail = OpCall, call.Pos(), lint.ExprString(call.Fun)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && w.info().Selections[sel] != nil {
		op.Recv = lint.ExprString(sel.X)
	}
	for _, key := range w.resolveCallees(call) {
		op.Callee = key
		w.emit(op)
	}
}

// walkExpr scans an expression for operations. Calls and function
// literals are handled structurally; everything else recurses.
func (w *walker) walkExpr(expr ast.Expr, held *heldSet) {
	switch e := expr.(type) {
	case nil:
		return
	case *ast.CallExpr:
		w.walkCallExpr(e, held)
	case *ast.FuncLit:
		// A literal not consumed by a recognized construct: assume it
		// may run synchronously wherever it flows, against a copy of the
		// current lock state.
		w.walkLit(e, held.copyHeld())
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if call, ok := e.X.(*ast.CallExpr); ok && w.isClockAfter(call) {
				w.emit(Op{Kind: OpWait, Pos: e.OpPos, Detail: "<-clock.After", Held: held.snapshot()})
				for _, arg := range call.Args {
					w.walkExpr(arg, held)
				}
				return
			}
			w.emit(Op{Kind: OpBlock, Pos: e.OpPos, Detail: "channel receive", Gated: w.gated, Held: held.snapshot()})
		}
		w.walkExpr(e.X, held)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Y, held)
	case *ast.ParenExpr:
		w.walkExpr(e.X, held)
	case *ast.StarExpr:
		w.walkExpr(e.X, held)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, held)
	case *ast.IndexExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Index, held)
	case *ast.SliceExpr:
		w.walkExpr(e.X, held)
		w.walkExpr(e.Low, held)
		w.walkExpr(e.High, held)
		w.walkExpr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, held)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, held)
	}
}

// walkCallExpr classifies one call: mutex operation, gate-protocol
// call, intrinsic wait/block, or resolved call edge.
func (w *walker) walkCallExpr(call *ast.CallExpr, held *heldSet) {
	fn := w.calleeOf(call)
	if fn == nil {
		// Builtins, conversions, calls through function values: walk
		// operands; an unresolved call contributes nothing (optimistic).
		w.walkExpr(call.Fun, held)
		for _, arg := range call.Args {
			w.walkExpr(arg, held)
		}
		return
	}

	// Mutex Lock/RLock/Unlock/RUnlock.
	if kind, read, ok := mutexOpOf(fn); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			w.walkExpr(sel.X, held)
			class := w.classOf(sel.X)
			switch kind {
			case "Lock":
				// Only a clock-aware mutex's waiters shed their run token.
				gated := isClockMutexOp(fn)
				w.emit(Op{Kind: OpAcquire, Pos: call.Pos(), Class: class, Read: read, Gated: gated, Held: held.snapshot()})
				held.acquire(HeldLock{Class: class, Read: read, Gated: gated, Pos: call.Pos()})
			case "Unlock":
				w.emit(Op{Kind: OpRelease, Pos: call.Pos(), Class: class, Read: read})
				held.release(class)
			}
		}
		return
	}

	// Gate protocol calls; a simclock.Group spawns and joins like the
	// gate it wraps.
	if lint.RecvNamed(fn, "internal/simclock", "Gate") || lint.RecvNamed(fn, "internal/simclock", "Group") {
		w.walkGateCall(call, fn, held)
		return
	}

	// Clock waits and external blocking intrinsics.
	if detail, kind, ok := intrinsicOf(fn); ok {
		for _, arg := range call.Args {
			w.walkExpr(arg, held)
		}
		w.walkExpr(call.Fun, held)
		op := Op{Pos: call.Pos(), Detail: detail, Held: held.snapshot()}
		if kind == OpBlock {
			op.Kind = OpBlock
			op.Gated = w.gated
		} else {
			op.Kind = OpWait
		}
		w.emit(op)
		return
	}

	// Ordinary call: walk operands, then record resolved edges.
	w.walkExpr(call.Fun, held)
	for _, arg := range call.Args {
		w.walkExpr(arg, held)
	}
	w.emitCalls(call, Op{Gated: w.gated, Held: held.snapshot()})
}

// walkGateCall handles the simclock.Gate protocol methods.
func (w *walker) walkGateCall(call *ast.CallExpr, fn *types.Func, held *heldSet) {
	// The receiver may itself be a call (simclock.GateFor(clock)); scan
	// it for nested operations.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, held)
	}
	switch fn.Name() {
	case "Enter":
		w.emit(Op{Kind: OpGateEnter, Pos: call.Pos()})
	case "Exit":
		w.emit(Op{Kind: OpGateExit, Pos: call.Pos()})
	case "Wait":
		if lint.RecvNamed(fn, "internal/simclock", "Group") {
			// A sanctioned join: it parks through the gate.
			w.emit(Op{Kind: OpBlock, Pos: call.Pos(), Detail: "Group.Wait", Gated: true, Held: held.snapshot()})
			return
		}
		for _, arg := range call.Args {
			w.walkExpr(arg, held)
		}
		w.emit(Op{Kind: OpWait, Pos: call.Pos(), Detail: "Gate.Wait", Held: held.snapshot()})
	case "Run":
		if len(call.Args) == 1 {
			w.walkGateArg(call.Args[0], held, false)
		}
	case "Go":
		if len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.FuncLit); ok {
				w.walkConcurrentLit(lit)
			} else if key, ok := w.funcValueKey(call.Args[0]); ok {
				w.emit(Op{Kind: OpCall, Pos: call.Pos(), Callee: key, Concurrent: true})
			}
		}
	case "Block", "BlockIO":
		if len(call.Args) == 1 {
			w.walkBlockArg(call.Args[0], held, fn.Name())
		}
	case "BlockOn":
		if len(call.Args) == 3 {
			w.walkExpr(call.Args[0], held)
			w.walkExpr(call.Args[1], held)
			w.walkBlockArg(call.Args[2], held, fn.Name())
		}
	}
}

// walkGateArg walks a Gate.Run argument: literals inline, named
// functions as ordinary edges.
func (w *walker) walkGateArg(arg ast.Expr, held *heldSet, gated bool) {
	if lit, ok := arg.(*ast.FuncLit); ok {
		prev := w.gated
		w.gated = w.gated || gated
		w.walkLit(lit, held.copyHeld())
		w.gated = prev
		return
	}
	if key, ok := w.funcValueKey(arg); ok {
		w.emit(Op{Kind: OpCall, Pos: arg.Pos(), Callee: key, Gated: gated || w.gated, Held: held.snapshot()})
		return
	}
	w.walkExpr(arg, held)
}

// walkBlockArg handles Gate.Block / BlockIO / BlockOn wait arguments, the heart
// of the gate discipline:
//
//   - gate.Block(mu.Lock) is an acquisition that persists after the
//     call; it is not clock-aware (gatecheck wants a simclock.Mutex for
//     a lock held across a clock wait, whose waiters the clock can see);
//   - gate.Block(wg.Wait) and friends are sanctioned blocks (waits);
//   - gate.Block(func() { ... }) walks the closure inline with the
//     SAME lock state (its acquisitions persist) under the gated flag.
func (w *walker) walkBlockArg(arg ast.Expr, held *heldSet, method string) {
	if lit, ok := arg.(*ast.FuncLit); ok {
		prev := w.gated
		w.gated = true
		w.walkLit(lit, held)
		w.gated = prev
		return
	}
	if sel, ok := arg.(*ast.SelectorExpr); ok {
		if mv := w.methodValueOf(sel); mv != nil {
			if kind, read, ok := mutexOpOf(mv); ok {
				w.walkExpr(sel.X, held)
				class := w.classOf(sel.X)
				switch kind {
				case "Lock":
					w.emit(Op{Kind: OpAcquire, Pos: arg.Pos(), Class: class, Read: read, Held: held.snapshot()})
					held.acquire(HeldLock{Class: class, Read: read, Pos: arg.Pos()})
				case "Unlock":
					w.emit(Op{Kind: OpRelease, Pos: arg.Pos(), Class: class, Read: read})
					held.release(class)
				}
				return
			}
			if detail, _, ok := intrinsicOf(mv); ok {
				w.walkExpr(sel.X, held)
				w.emit(Op{Kind: OpBlock, Pos: arg.Pos(), Detail: "gate." + method + "(" + detail + ")", Gated: true, Held: held.snapshot()})
				return
			}
			w.walkExpr(sel.X, held)
			w.emit(Op{Kind: OpCall, Pos: arg.Pos(), Callee: callgraph.Key(mv), Gated: true, Held: held.snapshot()})
			return
		}
	}
	if key, ok := w.funcValueKey(arg); ok {
		w.emit(Op{Kind: OpCall, Pos: arg.Pos(), Callee: key, Gated: true, Held: held.snapshot()})
		return
	}
	// Unknown function value: the construct itself declares sanctioned
	// blocking; record it so summaries see a wait.
	w.walkExpr(arg, held)
	w.emit(Op{Kind: OpBlock, Pos: arg.Pos(), Detail: "gate." + method, Gated: true, Held: held.snapshot()})
}

// trackLocalClass records lock classes flowing into local variables:
// annotated helper calls (`lock := ct.evictLock(id)` where evictLock
// carries //swaplint:lockclass) and direct aliases (`mu := &s.mu`).
func (w *walker) trackLocalClass(s *ast.AssignStmt, held *heldSet) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := w.info().Defs[id]
		if obj == nil {
			obj = w.info().Uses[id]
		}
		if obj == nil {
			continue
		}
		var class Class
		switch rhs := s.Rhs[i].(type) {
		case *ast.CallExpr:
			if fn := w.calleeOf(rhs); fn != nil {
				if name, ok := w.facts.LockClasses[callgraph.Key(fn)]; ok {
					class = Class{Name: name, Expr: id.Name}
				}
			}
		case *ast.UnaryExpr:
			if rhs.Op == token.AND {
				class = w.classOf(rhs.X)
				class.Expr = id.Name
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			class = w.classOf(s.Rhs[i])
			class.Expr = id.Name
		}
		if class.Name != "" {
			w.localClass[obj] = class
		}
	}
}
