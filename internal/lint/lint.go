// Package lint implements qcloud-vet: project-specific static
// analyzers that mechanically enforce the repo's determinism and
// hot-path contracts. Every PR so far stakes correctness on invariants
// held only by convention — bit-identical traces at any worker count,
// per-(job,shot) RNG streams, a zero-alloc shot loop, no goroutine in
// the session packages beyond internal/par's fan-out — and this
// package turns each into a diagnostic that fails review instead of
// (or before) a test.
//
// The suite is built on stdlib go/parser + go/types only, so it adds
// no module dependencies. The Analyzer/Pass split deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers could later be
// lifted onto that framework without rewriting their bodies.
//
// Analyzers (see DESIGN.md "Determinism invariants" for the catalog):
//
//   - maprange: no map iteration in deterministic packages unless the
//     keys are collected and sorted before use, or the loop is
//     annotated //qcloud:orderinvariant.
//   - wallclock: no time.Now/Since/Until (or timer constructors) in
//     simulation packages — all time comes from sim clocks.
//   - globalrand: no top-level math/rand draws — every stream derives
//     from a per-(job,shot) seed.
//   - noalloc: functions annotated //qcloud:noalloc may not contain
//     allocation-forcing constructs.
//   - eventorder: no go statement in internal/cloud, internal/journal
//     or internal/tenant, test files included; their fan-out is
//     internal/par.
//   - unreachable: no declaration of a non-main package that no main,
//     init, var initializer or other package's test reaches, and no
//     exported field of a reached struct that none of them writes,
//     unless it is marked //qcloud:keep with a reason; whole-module
//     loads only.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Source directives recognized by the suite. Each is written as a
// comment of the form //qcloud:name (no space after //, like
// //go:noinline), either in a declaration's doc comment or on/above
// the annotated statement.
const (
	// DirectiveNoAlloc marks a function whose body must not contain
	// allocation-forcing constructs (checked by the noalloc analyzer;
	// pinned dynamically by the AllocsPerRun tests).
	DirectiveNoAlloc = "qcloud:noalloc"
	// DirectiveOrderInvariant marks a map-range loop whose effect does
	// not depend on iteration order (exact commutative folds such as
	// integer sums, or selections with a total-order tie-break).
	DirectiveOrderInvariant = "qcloud:orderinvariant"
	// DirectiveKeep keeps a declaration the unreachable analyzer would
	// report; the text after it must say why (the test that compares
	// against a reference implementation, the CI step that runs it).
	DirectiveKeep = "qcloud:keep"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer (Name/Doc/Run over a Pass).
type Analyzer struct {
	Name string
	Doc  string
	// Scope restricts the analyzer to packages whose import path
	// matches one of these prefixes ("p" matches p and p/...). Empty
	// means every package. Scoping is applied by Vet, not by Run, so
	// fixture tests can exercise analyzers on arbitrary packages.
	Scope []string
	// IncludeTests extends the analyzer to _test.go files.
	IncludeTests bool
	Run          func(*Pass) error
	// Program, set instead of Run, sees every loaded package at once
	// through a Pass that carries only the analyzer, Fset and Reportf.
	// Scope and IncludeTests do not apply.
	Program func(*Pass, []*Pkg) error
}

// applies reports whether the analyzer's scope covers the import path.
func (a *Analyzer) applies(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	// External test packages share their library package's contracts.
	path = strings.TrimSuffix(path, "_test")
	for _, p := range a.Scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package. Files
// is already filtered down to non-test files unless the analyzer sets
// IncludeTests. The field set mirrors analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Pkg
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file of the package.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.pkg.TestFiles[f] }

// Analyzers returns the qcloud-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapRange, Wallclock, GlobalRand, NoAlloc, EventOrder, Unreachable}
}

// DeterministicPackages are the packages whose outputs are pinned
// bit-identical for a fixed seed (golden trace hashes, worker-count
// equivalence suites). The maprange/wallclock/globalrand analyzers
// default to this set.
var DeterministicPackages = []string{
	// backend generates the calibrations the compiler, qsim and sched
	// read: every fleet machine's snapshot at an instant.
	"qcloud/internal/backend",
	"qcloud/internal/qsim",
	"qcloud/internal/cloud",
	"qcloud/internal/fault",
	"qcloud/internal/trace",
	"qcloud/internal/sched",
	"qcloud/internal/workload",
	"qcloud/internal/journal",
	"qcloud/internal/tenant",
	// stats hosts Source, the generator qsim and cloud draw from, and
	// the samplers of the workload and background models.
	"qcloud/internal/stats",
	// The dispatcher's wire/queue-ordering layer feeds the
	// deterministic merge, so it carries the same contracts. Its parent
	// qcloud/internal/dispatch — the daemons themselves — is
	// deliberately NOT listed: lease deadlines and drain timeouts are
	// real wall-clock concerns ("p" matches p and p/..., so listing the
	// subpackage does not pull the parent in).
	"qcloud/internal/dispatch/wire",
}

// Vet runs every applicable analyzer over the packages and returns all
// diagnostics sorted by position. Analyzer errors (not diagnostics)
// abort the run.
func Vet(pkgs []*Pkg, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	seen := make(map[string]bool)
	collect := func(d Diagnostic) {
		// A package loaded twice (e.g. overlapping patterns) must not
		// double-report.
		key := d.String()
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		if a.Program != nil && len(pkgs) > 0 {
			pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset, report: collect}
			if err := a.Program(pass, pkgs); err != nil {
				return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.applies(pkg.PkgPath) {
				continue
			}
			files := pkg.Files
			if !a.IncludeTests {
				files = nil
				for _, f := range pkg.Files {
					if !pkg.TestFiles[f] {
						files = append(files, f)
					}
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				pkg:       pkg,
				report:    collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// hasDirective reports whether the comment group carries //qcloud:name.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isDirectiveComment(c.Text, name) {
			return true
		}
	}
	return false
}

// isDirectiveComment matches a single //qcloud:name comment, allowing
// trailing explanation after whitespace.
func isDirectiveComment(text, name string) bool {
	rest, ok := strings.CutPrefix(text, "//"+name)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// directiveLines returns the set of source lines in f on which the
// directive appears, for statement-level directives (a statement is
// annotated when the directive sits on its own line or the line above).
func directiveLines(fset *token.FileSet, f *ast.File, name string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isDirectiveComment(c.Text, name) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// stmtAnnotated reports whether a directive line coincides with pos's
// line or the line immediately above it.
func stmtAnnotated(fset *token.FileSet, lines map[int]bool, pos token.Pos) bool {
	l := fset.Position(pos).Line
	return lines[l] || lines[l-1]
}

// pkgNameOf resolves an expression to the *types.PkgName it denotes
// (nil if it is not a package qualifier).
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on the node stack (nil if at file scope).
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// inspectWithStack walks f like ast.Inspect while maintaining the
// ancestor stack (excluding n itself) for each visited node.
func inspectWithStack(f *ast.File, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
