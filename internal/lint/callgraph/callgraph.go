// Package callgraph builds the interprocedural call graph the
// gatecheck and lockorder analyzers share. Resolution is
// CHA-style (class-hierarchy analysis): static calls resolve to their
// single callee, while a call through an interface method widens
// conservatively to every named type in the program — source packages
// and their export-data imports alike — that implements the interface.
//
// Functions are identified by their types.Func full name (e.g.
// "(swapservellm/internal/core.*Controller).SwapOut"): the loader
// type-checks each target package independently against export data, so
// the same function is represented by distinct types.Func objects in
// different packages' views, and only the full-name string is a stable
// cross-package identity.
//
// The package also provides Tarjan strongly-connected components over
// the graph, emitted callee-first, which is the evaluation order the
// facts package uses to propagate per-function summaries bottom-up
// (mutually recursive functions converge because an SCC's members share
// one combined summary).
package callgraph

import (
	"go/types"
	"sort"
	"strings"

	"swapservellm/internal/lint"
)

// Key returns fn's stable cross-package identity.
func Key(fn *types.Func) string { return fn.FullName() }

// DisplayName compresses a function key for diagnostics:
// "(swapservellm/internal/core.*Controller).SwapOut" becomes
// "(*core.Controller).SwapOut" and package-level functions keep a
// short "core.retryTransient" form.
func DisplayName(key string) string {
	shorten := func(path string) string {
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	if strings.HasPrefix(key, "(") {
		end := strings.Index(key, ")")
		if end < 0 {
			return key
		}
		recv := key[1:end]
		star := ""
		if i := strings.Index(recv, "*"); i >= 0 {
			star = "*"
			recv = recv[:i] + recv[i+1:]
		}
		if i := strings.LastIndex(recv, "."); i >= 0 {
			recv = shorten(recv[:i]) + "." + recv[i+1:]
		}
		return "(" + star + recv + ")" + key[end+1:]
	}
	if i := strings.LastIndex(key, "."); i >= 0 {
		return shorten(key[:i]) + "." + key[i+1:]
	}
	return key
}

// Resolver answers "which concrete methods can this interface call
// reach": the conservative widening of CHA. It indexes every named type
// visible to the program — the source-checked target packages plus the
// transitive closure of their export-data imports — because a call site
// in one package references interface objects from its own type-check
// universe, and types.Implements only matches within a universe.
type Resolver struct {
	named []*types.Named
	cache map[string][]string
}

// NewResolver indexes the named types of prog's packages and imports.
func NewResolver(prog *lint.Program) *Resolver {
	r := &Resolver{cache: make(map[string][]string)}
	seen := make(map[*types.Package]bool)
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				r.named = append(r.named, named)
			}
		}
		for _, imp := range pkg.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range prog.Packages {
		addScope(pkg.Types)
	}
	return r
}

// Implementations returns the keys of every concrete method the
// interface method m may dispatch to, under CHA widening. The result
// is deduplicated by key (the same type appears once per type-check
// universe) and cached per (interface, method).
func (r *Resolver) Implementations(iface *types.Interface, m *types.Func) []string {
	cacheKey := Key(m)
	if got, ok := r.cache[cacheKey]; ok {
		return got
	}
	var keys []string
	dedup := make(map[string]bool)
	for _, named := range r.named {
		if types.IsInterface(named) {
			continue
		}
		var impl types.Type
		if types.Implements(named, iface) {
			impl = named
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			impl = ptr
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			k := Key(fn)
			if !dedup[k] {
				dedup[k] = true
				keys = append(keys, k)
			}
		}
	}
	r.cache[cacheKey] = keys
	return keys
}

// Edge is one call site: the callee's key plus flags describing how the
// callee runs relative to the caller.
type Edge struct {
	To string
	// Concurrent marks `go f()` and Gate.Go spawns: the callee runs on
	// its own goroutine, so its blocking does not block the caller and
	// it does not inherit the caller's lock state.
	Concurrent bool
	// Gated marks calls made through Gate.Block/BlockIO: the caller's
	// run token is shed while the callee runs, so callee blocking is
	// sanctioned (it becomes a clock wait, not a stall).
	Gated bool
}

// Graph is the program call graph over function keys. Only functions
// with bodies in the program appear as nodes; edges may point at keys
// without nodes (externals), which SCCs ignores.
type Graph struct {
	Nodes map[string][]Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{Nodes: make(map[string][]Edge)} }

// AddNode ensures key exists as a node.
func (g *Graph) AddNode(key string) {
	if _, ok := g.Nodes[key]; !ok {
		g.Nodes[key] = nil
	}
}

// AddEdge records a call from caller to callee.
func (g *Graph) AddEdge(caller string, e Edge) {
	g.Nodes[caller] = append(g.Nodes[caller], e)
}

// SCCs returns the strongly connected components of the graph in
// callee-first order: every component is emitted after all components
// it calls into. Edges to keys without nodes are skipped. Roots are
// visited in sorted key order so the result is deterministic.
func (g *Graph) SCCs() [][]string {
	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	states := make(map[string]*nodeState, len(g.Nodes))
	var stack []string
	var sccs [][]string
	next := 0

	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Iterative Tarjan: the frames carry the edge cursor so deep call
	// chains cannot overflow the goroutine stack.
	type frame struct {
		key  string
		edge int
	}
	var strongconnect func(root string)
	strongconnect = func(root string) {
		frames := []frame{{key: root}}
		states[root] = &nodeState{index: next, lowlink: next, onStack: true}
		next++
		stack = append(stack, root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			st := states[f.key]
			advanced := false
			for f.edge < len(g.Nodes[f.key]) {
				e := g.Nodes[f.key][f.edge]
				f.edge++
				if _, isNode := g.Nodes[e.To]; !isNode {
					continue
				}
				cs, visited := states[e.To]
				if !visited {
					states[e.To] = &nodeState{index: next, lowlink: next, onStack: true}
					next++
					stack = append(stack, e.To)
					frames = append(frames, frame{key: e.To})
					advanced = true
					break
				}
				if cs.onStack && cs.index < st.lowlink {
					st.lowlink = cs.index
				}
			}
			if advanced {
				continue
			}
			if st.lowlink == st.index {
				var comp []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[top].onStack = false
					comp = append(comp, top)
					if top == f.key {
						break
					}
				}
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := states[frames[len(frames)-1].key]
				if st.lowlink < parent.lowlink {
					parent.lowlink = st.lowlink
				}
			}
		}
	}
	for _, k := range keys {
		if _, visited := states[k]; !visited {
			strongconnect(k)
		}
	}
	return sccs
}
