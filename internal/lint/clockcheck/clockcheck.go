// Package clockcheck forbids direct wall-clock calls in the
// deterministic packages of the simulation.
//
// Chaos-seed replay and every latency measurement in this repository
// are only sound if simulated code observes time exclusively through
// an injected simclock.Clock: a single time.Now or time.Sleep smuggles
// wall time into the simulated timeline, breaking both the compression
// factor and deterministic replays. clockcheck reports any call to
// time.Now, time.Sleep, time.Since, time.Until, time.After,
// time.AfterFunc, time.Tick, time.NewTimer, or time.NewTicker inside a
// deterministic package. Duration/Time types and constants
// (time.Second, time.Duration, ...) remain free to use.
//
// Test files are exempt: tests drive Manual clocks but also bound
// themselves with real wall-clock timeouts, which is legitimate.
// internal/simclock itself is the abstraction over the wall clock and
// is not a deterministic package.
//
// The experiment harness carries one further rule, enforced in test
// files too: internal/experiments must not construct scaled clocks
// (simclock.NewScaled). Experiments run on simclock.NewVirtual — the
// discrete-event clock whose runs are deterministic and race-clean —
// and a scaled clock smuggled into one trial reintroduces wall-clock
// waiting and timing-dependent results for the whole suite. A genuinely exceptional site can carry a
// //swaplint:ignore clockcheck <reason> directive.
package clockcheck

import (
	"go/ast"
	"go/types"

	"swapservellm/internal/lint"
)

// deterministicPkgs lists the import-path suffixes of packages that
// must consult the simulation clock only. (Matched by suffix so
// testdata fakes qualify too.)
var deterministicPkgs = []string{
	"internal/core",
	"internal/sched",
	"internal/cudackpt",
	"internal/cgroup",
	"internal/chaos",
	"internal/cluster",
	"internal/gpu",
	"internal/perfmodel",
	"internal/engine",
	"internal/openai",
	"internal/container",
	"internal/storage",
	"internal/invariant",
	"internal/ckptstore",
	"internal/obs",
	"internal/proxy",
	"internal/proxy/ir",
}

// virtualOnlyPkgs lists import-path suffixes where constructing a
// scaled clock is forbidden: these packages run on the Virtual
// discrete-event clock exclusively.
var virtualOnlyPkgs = []string{
	"internal/experiments",
}

// scaledCtors lists the simclock constructors banned in virtual-only
// packages.
var scaledCtors = map[string]bool{
	"NewScaled": true,
}

// forbidden lists the wall-clock entry points of package time.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// New returns the clockcheck analyzer.
func New() *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "clockcheck",
		Doc:  "forbid direct time.Now/Sleep/After/... in deterministic packages; use internal/simclock",
	}
	a.Run = func(pass *lint.Pass) error {
		wallClock := deterministic(pass.Pkg.Path())
		virtOnly := virtualOnly(pass.Pkg.Path())
		if !wallClock && !virtOnly {
			return nil
		}
		for _, f := range pass.Files {
			// The wall-clock rule exempts test files; the virtual-only
			// rule does not — a scaled clock in an experiment _test.go
			// de-determinizes the suite just the same.
			checkWall := wallClock && !pass.IsTestFile(f.Pos())
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
				if !ok {
					return true
				}
				from := pkgName.Imported().Path()
				if checkWall && from == "time" && forbidden[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"direct wall-clock call time.%s in deterministic package %s: use an injected simclock.Clock",
						sel.Sel.Name, pass.Pkg.Name())
					return true
				}
				if virtOnly && scaledCtors[sel.Sel.Name] &&
					lint.PkgPathHasSuffix(from, "internal/simclock") {
					pass.Reportf(sel.Pos(),
						"scaled clock simclock.%s in virtual-only package %s: experiments run on simclock.NewVirtual",
						sel.Sel.Name, pass.Pkg.Name())
				}
				return true
			})
		}
		return nil
	}
	return a
}

// virtualOnly reports whether the package path is in the Virtual-only set.
func virtualOnly(path string) bool {
	for _, suffix := range virtualOnlyPkgs {
		if lint.PkgPathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// deterministic reports whether the package path is in the enforced set.
func deterministic(path string) bool {
	for _, suffix := range deterministicPkgs {
		if lint.PkgPathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}
