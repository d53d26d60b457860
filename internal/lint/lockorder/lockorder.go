// Package lockorder builds the module-wide lock-order graph from the
// facts package's acquisition summaries and reports two things:
//
//   - cycles in the observed order — two lock classes each acquired
//     while the other is held, on any pair of call paths, which is a
//     potential deadlock (lockdep-style);
//
//   - inversions of the declared order: the sanctioned acquisition
//     order is declared in ONE source-of-truth comment
//
//     //swaplint:lockorder core.Controller.mu < core.Backend.swapMu < ...
//
//     (several chains may be declared, but all in the same file), and
//     any observed edge contradicting the declaration's transitive
//     closure is reported at the acquisition site with the call path.
//
// Edges are recorded both for direct nested acquisitions (B locked
// while A held in one body) and interprocedurally (a call made while A
// is held reaching a function whose summary acquires B). Read-read
// self-edges (nested RLocks of one class) are not edges; everything
// else is.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"swapservellm/internal/lint"
	"swapservellm/internal/lint/callgraph"
	"swapservellm/internal/lint/facts"
)

// New returns the lockorder analyzer.
func New() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "lockorder",
		Doc:  "module-wide lock-order graph: report acquisition cycles (potential deadlock) and inversions of the declared //swaplint:lockorder order",
		Run:  run,
	}
}

// edge is the first observed acquisition of `to` while `from` is held.
type edge struct {
	from, to string
	pos      token.Pos
	pkg      *types.Package
	path     string // call path to the inner acquisition, "" when direct
}

type global struct {
	// edges keyed "from\x00to", first observation wins (walk order is
	// deterministic).
	edges map[string]*edge
	order []*edge // insertion order for deterministic iteration
	// declared maps "before\x00after" for the transitive closure of the
	// //swaplint:lockorder declarations.
	declared map[string]bool
	declPos  map[string]token.Pos // first declaration position per file
}

func key2(from, to string) string { return from + "\x00" + to }

func analyze(prog *lint.Program) *global {
	return prog.Cached("lockorder.global", func() interface{} {
		f := facts.Of(prog)
		g := &global{edges: make(map[string]*edge), declared: make(map[string]bool)}
		add := func(e *edge) {
			k := key2(e.from, e.to)
			if _, ok := g.edges[k]; !ok {
				g.edges[k] = e
				g.order = append(g.order, e)
			}
		}
		for _, ff := range f.Funcs {
			for i := range ff.Ops {
				op := &ff.Ops[i]
				switch op.Kind {
				case facts.OpAcquire:
					if !op.Class.Known() {
						continue
					}
					for _, h := range op.Acquired() {
						if !h.Class.Known() {
							continue
						}
						if h.Class.Name == op.Class.Name && h.Read && op.Read {
							continue
						}
						add(&edge{from: h.Class.Name, to: op.Class.Name, pos: op.Pos, pkg: ff.Pkg.Types})
					}
				case facts.OpCall:
					if op.Concurrent || len(op.Acquired()) == 0 {
						continue
					}
					sum := f.Summaries[op.Callee]
					if sum == nil {
						continue
					}
					for _, name := range sortedNames(sum.Acquires) {
						acq := sum.Acquires[name]
						for _, h := range op.Acquired() {
							if !h.Class.Known() {
								continue
							}
							if h.Class.Name == name && h.Read && acq.Read {
								continue
							}
							t := acq.Trace.Prepend(facts.Step{Func: callgraph.DisplayName(op.Callee), Pos: op.Pos})
							add(&edge{from: h.Class.Name, to: name, pos: op.Pos, pkg: ff.Pkg.Types, path: t.String()})
						}
					}
				}
			}
		}
		g.declOrder(f)
		return g
	}).(*global)
}

// declOrder builds the transitive closure of the declared order.
func (g *global) declOrder(f *facts.Facts) {
	for _, d := range f.LockOrderDecls {
		if d.Bad {
			continue
		}
		for i := 0; i < len(d.Classes)-1; i++ {
			g.declared[key2(d.Classes[i], d.Classes[i+1])] = true
		}
	}
	// Floyd–Warshall style closure over the (small) class set.
	classes := make(map[string]bool)
	for k := range g.declared {
		parts := strings.SplitN(k, "\x00", 2)
		classes[parts[0]] = true
		classes[parts[1]] = true
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, k := range names {
		for _, i := range names {
			for _, j := range names {
				if g.declared[key2(i, k)] && g.declared[key2(k, j)] {
					g.declared[key2(i, j)] = true
				}
			}
		}
	}
}

func run(pass *lint.Pass) error {
	g := analyze(pass.Program)
	f := facts.Of(pass.Program)

	reportDecls(pass, f)

	// Declared-order inversions: an observed edge from→to where the
	// declaration says to < from.
	for _, e := range g.order {
		if e.pkg != pass.Pkg {
			continue
		}
		if g.declared[key2(e.to, e.from)] {
			detail := ""
			if e.path != "" {
				detail = " via " + e.path
			}
			pass.Reportf(e.pos, "lock-order inversion: %s acquired while %s is held%s, but the declared order is %s < %s",
				e.to, e.from, detail, e.to, e.from)
		}
	}

	// Cycles in the observed graph (potential deadlock), reported once
	// at a deterministic representative edge.
	for _, cyc := range g.cycles() {
		rep := g.edges[key2(cyc[0], cyc[1%len(cyc)])]
		if rep == nil || rep.pkg != pass.Pkg {
			continue
		}
		var sites []string
		for i := range cyc {
			e := g.edges[key2(cyc[i], cyc[(i+1)%len(cyc)])]
			if e == nil {
				continue
			}
			sites = append(sites, fmt.Sprintf("%s acquired while %s held at %s", e.to, e.from, lint.ShortPos(pass.Fset.Position(e.pos))))
		}
		pass.Reportf(rep.pos, "potential deadlock: lock-order cycle %s → %s (%s)",
			strings.Join(cyc, " → "), cyc[0], strings.Join(sites, "; "))
	}
	return nil
}

// reportDecls validates the //swaplint:lockorder declarations: they
// must be well-formed and all live in a single file.
func reportDecls(pass *lint.Pass, f *facts.Facts) {
	files := make(map[string]token.Pos)
	var fileNames []string
	for _, d := range f.LockOrderDecls {
		if _, ok := files[d.File]; !ok {
			files[d.File] = d.Pos
			fileNames = append(fileNames, d.File)
		}
	}
	sort.Strings(fileNames)
	for _, d := range f.LockOrderDecls {
		if !pass.InFiles(d.Pos) {
			continue
		}
		if d.Bad {
			pass.Reportf(d.Pos, "malformed directive: want //swaplint:lockorder <class> < <class> [< ...]")
			continue
		}
		if len(fileNames) > 1 && d.File != fileNames[0] {
			pass.Reportf(d.Pos, "lock order must be declared in a single source-of-truth file; it is already declared in %s", filepath.Base(fileNames[0]))
		}
	}
}

// cycles returns the strongly connected components of the observed
// edge graph that contain a cycle (size > 1, or a non-read self-loop),
// each rotated to start at its lexicographically smallest class and
// ordered so consecutive elements are real edges.
func (g *global) cycles() [][]string {
	cg := callgraph.NewGraph()
	for _, e := range g.order {
		cg.AddNode(e.from)
		cg.AddNode(e.to)
		cg.AddEdge(e.from, callgraph.Edge{To: e.to})
	}
	var out [][]string
	for _, comp := range cg.SCCs() {
		if len(comp) == 1 {
			c := comp[0]
			if _, ok := g.edges[key2(c, c)]; ok {
				out = append(out, []string{c})
			}
			continue
		}
		sort.Strings(comp)
		inComp := make(map[string]bool, len(comp))
		for _, c := range comp {
			inComp[c] = true
		}
		// Order the component as an actual cycle path starting from the
		// smallest class, following edges greedily (deterministic; for
		// the common 2-cycles this is exact).
		path := []string{comp[0]}
		seen := map[string]bool{comp[0]: true}
		for len(path) < len(comp) {
			cur := path[len(path)-1]
			nextFound := ""
			for _, cand := range comp {
				if !seen[cand] && g.edges[key2(cur, cand)] != nil {
					nextFound = cand
					break
				}
			}
			if nextFound == "" {
				// Not a simple cycle through all members; fall back to
				// sorted order (sites list will skip missing edges).
				path = comp
				break
			}
			seen[nextFound] = true
			path = append(path, nextFound)
		}
		out = append(out, path)
	}
	return out
}

func sortedNames(m map[string]*facts.Acquire) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
