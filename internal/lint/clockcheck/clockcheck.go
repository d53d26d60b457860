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
// Test files are exempt: tests run on Virtual clocks but may bound
// themselves with real wall-clock timeouts, which is legitimate.
// internal/simclock itself is the abstraction over the wall clock and
// is not a deterministic package.
//
// A second rule holds in every package, test files included: only
// internal/simclock and the two daemons (cmd/swapserved,
// cmd/swapgateway) may construct a scaled clock (simclock.NewScaled).
// Tests, examples and experiments run on simclock.NewVirtual, the
// discrete-event clock whose runs are deterministic and race-clean; a
// scaled clock turns wall-clock overhead into simulated time, so its
// numbers depend on the host. The daemons keep it because their clients
// are other processes, which a Virtual clock cannot serve. A genuinely
// exceptional site can carry a //swaplint:ignore clockcheck <reason>
// directive.
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

// scaledPkgs lists the import-path suffixes of the packages that may
// construct a scaled clock.
var scaledPkgs = []string{
	"internal/simclock",
	"cmd/swapserved",
	"cmd/swapgateway",
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
		wallClock := hasSuffix(pass.Pkg.Path(), deterministicPkgs)
		checkScaled := !hasSuffix(pass.Pkg.Path(), scaledPkgs)
		if !wallClock && !checkScaled {
			return nil
		}
		for _, f := range pass.Files {
			// The wall-clock rule exempts test files; the scaled-clock
			// rule does not: a scaled clock in a _test.go makes that
			// test's timings depend on the host just the same.
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
				if checkScaled && sel.Sel.Name == "NewScaled" &&
					lint.PkgPathHasSuffix(from, "internal/simclock") {
					pass.Reportf(sel.Pos(),
						"scaled clock simclock.NewScaled in package %s: only the daemons run on one; use simclock.NewVirtual",
						pass.Pkg.Name())
				}
				return true
			})
		}
		return nil
	}
	return a
}

// hasSuffix reports whether the package path ends in one of suffixes.
func hasSuffix(path string, suffixes []string) bool {
	for _, suffix := range suffixes {
		if lint.PkgPathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}
