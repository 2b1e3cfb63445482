package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand flags uses of the top-level math/rand (and math/rand/v2)
// functions in the deterministic packages. Those draw from a shared
// ambient source: the draw sequence then depends on goroutine
// interleaving and on every other caller in the process, which breaks
// the per-(job,shot) stream contract (each shot's RNG derives from
// splitmix64(base, shot) — qsim's shotSeed — and replays identically at
// any worker count). Constructors (rand.New, rand.NewSource, ...)
// are allowed; only ambient draws and rand.Seed are not.
var GlobalRand = &Analyzer{
	Name:  "globalrand",
	Doc:   "flag top-level math/rand draws and rand.Seed in deterministic packages; derive per-(job,shot) streams instead",
	Scope: DeterministicPackages,
	Run:   runGlobalRand,
}

// globalRandAllowed are math/rand package-level functions that do not
// touch the global source.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalRand(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(p.TypesInfo, sel.X)
			if pn == nil {
				return true
			}
			path := pn.Imported().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			fn, ok := p.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || globalRandAllowed[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "%s.%s uses the process-global source; derive a per-(job,shot) stream (rand.New(rand.NewSource(seed)) or a seeded stats.Source)",
				pn.Imported().Name(), fn.Name())
			return true
		})
	}
	return nil
}
