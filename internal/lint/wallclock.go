package lint

import (
	"go/ast"
)

// Wallclock flags reads of the wall clock in simulation packages,
// where every instant must derive from the simulated clock (config
// windows, machine frontiers, trace timestamps). A stray time.Now in a
// sim path makes replays diverge run-to-run — the exact class of bug
// the golden trace hashes can only catch after the fact.
//
// The check includes _test.go files: test inputs built from time.Now
// are unreproducible, so failures cannot be replayed. A test package
// with a legitimate need can be listed in wallclockTestExemptions —
// which is intentionally empty and should stay that way.
var Wallclock = &Analyzer{
	Name:         "wallclock",
	Doc:          "flag time.Now/Since/Until and timer constructors in simulation packages; all time must come from sim clocks",
	Scope:        DeterministicPackages,
	IncludeTests: true,
	Run:          runWallclock,
}

// wallclockTestExemptions lists test packages (by import path) allowed
// to read the wall clock. Keep it empty: fix the test to use a fixed
// timestamp instead of adding an entry.
var wallclockTestExemptions = map[string]bool{}

// wallclockForbidden are the package-level time functions that read or
// schedule off the wall clock.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWallclock(p *Pass) error {
	for _, f := range p.Files {
		if p.IsTestFile(f) && wallclockTestExemptions[p.Pkg.Path()] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(p.TypesInfo, sel.X)
			if pn == nil || pn.Imported().Path() != "time" {
				return true
			}
			if !wallclockForbidden[sel.Sel.Name] {
				return true
			}
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in a simulation package; take the instant as a parameter or derive it from the sim clock",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
