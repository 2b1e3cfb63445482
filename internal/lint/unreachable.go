package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unreachable flags the functions, methods, types and constants of
// non-main packages that no binary reaches (DESIGN.md "Determinism
// invariants" has the root set). A method of a reached type is live
// when it is called or when any loaded interface, stdlib interfaces and
// type-parameter constraints included, names it. The same walk flags an
// exported field of a reached, exported struct that nothing it reaches
// writes, not counting a default fill in the struct's own method. The
// verdict needs the whole program, so the analyzer stays quiet unless
// the load holds every main package of the module.
var Unreachable = &Analyzer{
	Name:    "unreachable",
	Doc:     "flag declarations of non-main packages that no main, init, var initializer or other package's test reaches, and exported fields of reached structs that none of them writes, unless marked //" + DirectiveKeep + " <reason>; reports only when every main package is loaded (./...)",
	Program: runUnreachable,
}

// decl is a top-level declaration, or (name nil) a root whose
// references are followed: a var spec, or a test file whose references
// into its own package (skip) are not.
type decl struct {
	pkg      *Pkg
	key      string
	name     *ast.Ident
	node     ast.Node
	skip     string
	recv     string // receiver type key, for methods
	root     bool   // main, init or kept; a kept type keeps its methods
	reported bool   // in a non-main package and not assembly-backed
}

func runUnreachable(p *Pass, pkgs []*Pkg) error {
	for _, pkg := range pkgs {
		if !pkg.Whole {
			return nil
		}
	}
	decls := make(map[string]*decl)
	methods := make(map[string][]string) // receiver type key -> method keys
	live := make(map[string]bool)
	var work []*decl
	mark := func(k string) {
		if d := decls[k]; d != nil && !live[k] {
			live[k] = true
			work = append(work, d)
		}
	}
	for _, pkg := range pkgs {
		main := pkg.Types.Name() == "main"
		add := func(id *ast.Ident, node ast.Node, root, body bool, docs ...*ast.CommentGroup) *decl {
			d := &decl{pkg: pkg, key: objKey(pkg.Info.Defs[id]), name: id, node: node,
				root: keep(p, id, docs...) || root, reported: !main && body}
			decls[d.key] = d
			if d.root {
				mark(d.key)
			}
			return d
		}
		for _, f := range pkg.Files {
			if pkg.TestFiles[f] {
				work = append(work, &decl{pkg: pkg, node: f, skip: strings.TrimSuffix(pkg.PkgPath, "_test")})
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "_" {
						continue
					}
					dc := add(d.Name, d, d.Recv == nil && (d.Name.Name == "init" || main && d.Name.Name == "main"), d.Body != nil, d.Doc)
					if d.Recv != nil {
						dc.recv = typeKey(pkg.Info.Defs[d.Name].(*types.Func).Signature().Recv().Type())
						methods[dc.recv] = append(methods[dc.recv], dc.key)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, false, true, d.Doc, s.Doc)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								work = append(work, &decl{pkg: pkg, node: s})
								continue
							}
							for _, n := range s.Names {
								if n.Name != "_" {
									add(n, s, false, true, d.Doc, s.Doc)
								}
							}
						}
					}
				}
			}
		}
	}

	ifaces := interfaceMethodNames(pkgs)
	written := make(map[string]bool) // field keys some reached declaration writes
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		info := d.pkg.Info
		write := func(v *types.Var) {
			if v.Pkg() != nil && v.Pkg().Path() != d.skip {
				written[fieldKey(p.Fset, v)] = true
			}
		}
		fills := make(map[ast.Expr]bool)
		writeSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && !fills[sel] {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					write(s.Obj().(*types.Var))
				}
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != d.skip {
					mark(objKey(obj))
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n) // *T for an elided &T{...}
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							write(info.Uses[kv.Key.(*ast.Ident)].(*types.Var))
						} else {
							write(st.Field(i))
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					writeSel(l)
				}
			case *ast.IncDecStmt:
				writeSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writeSel(n.X)
				}
			case *ast.IfStmt:
				if d.recv != "" {
					markFills(info, n, d.recv, fills)
				}
			}
			return true
		})
		if d.name != nil {
			mark(typeKey(d.pkg.Info.Defs[d.name].Type())) // a constant's type may be named only by an earlier spec
			mark(d.recv)
			for _, m := range methods[d.key] {
				if d.root || ifaces[decls[m].name.Name] {
					mark(m)
				}
			}
		}
	}
	for k, d := range decls {
		if !live[k] && d.reported {
			p.Reportf(d.name.Pos(), "%s is reached by no main, init, var initializer or other package's test; delete it or mark it //%s <reason>",
				strings.TrimPrefix(k, d.pkg.PkgPath+"."), DirectiveKeep)
		}
		ts, ok := d.node.(*ast.TypeSpec)
		if !ok || !live[k] || !d.reported || !d.name.IsExported() {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.IsExported() && !keep(p, id, f.Doc, f.Comment) && !written[fieldKey(p.Fset, d.pkg.Info.Defs[id].(*types.Var))] {
					p.Reportf(id.Pos(), "field %s.%s is written by no main, init, var initializer or other package's test; delete it or mark it //%s <reason>",
						d.name.Name, id.Name, DirectiveKeep)
				}
			}
		}
	}
	return nil
}

// markFills adds to fills the selectors that a default fill assigns
// under the if statement s of a method of recv: an assignment directly
// in its body to a field of recv that its condition reads, the
// withDefaults idiom. Such an assignment writes only the default.
func markFills(info *types.Info, s *ast.IfStmt, recv string, fills map[ast.Expr]bool) {
	read := make(map[string]bool)
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			read[types.ExprString(sel)] = true
		}
		return true
	})
	for _, st := range s.Body.List {
		if as, ok := st.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && read[types.ExprString(sel)] {
					if s := info.Selections[sel]; s != nil && typeKey(s.Recv()) == recv {
						fills[sel] = true
					}
				}
			}
		}
	}
}

// fieldKey names a struct field by its declaring file, line and
// column: each package is type-checked on its own, parsing a file anew
// for every check that needs it, so two checks agree on the field's
// source position but not on its object or token.Pos.
func fieldKey(fset *token.FileSet, v *types.Var) string {
	return fset.Position(v.Origin().Pos()).String()
}

// keep reports whether the docs of the declaration named id carry
// //qcloud:keep, reporting a keep without a reason at id.
func keep(p *Pass, id *ast.Ident, docs ...*ast.CommentGroup) bool {
	for _, doc := range docs {
		if hasDirective(doc, DirectiveKeep) {
			for _, c := range doc.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//"+DirectiveKeep)) == "" {
					p.Reportf(id.Pos(), "%s: //%s needs a reason", id.Name, DirectiveKeep)
				}
			}
			return true
		}
	}
	return false
}

// objKey names a package-level object or method by package path,
// receiver type and name: each package is type-checked on its own, so
// two checks create two objects for one declaration. Local objects and
// fields yield "".
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return typeKey(fn.Signature().Recv().Type()) + "." + fn.Name()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeKey is the key of the named type t is, or points to.
func typeKey(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// interfaceMethodNames collects the method names of the error
// interface, of every interface type or constraint in the loaded
// packages, and of every package-level interface of what they import.
func interfaceMethodNames(pkgs []*Pkg) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for m := range it.Methods() {
				names[m.Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			for _, n := range tp.Scope().Names() {
				add(tp.Scope().Lookup(n).Type())
			}
			for _, imp := range tp.Imports() {
				visit(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		visit(pkg.Types)
	}
	return names
}
