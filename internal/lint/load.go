package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Pkg is one loaded, type-checked package: its syntax (including
// in-package _test.go files) plus type information. External test
// packages (package foo_test) load as their own Pkg with import path
// "foo_test"-suffixed.
type Pkg struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles map[*ast.File]bool
	Types     *types.Package
	Info      *types.Info
	// Whole is set on every package of a load that holds every main
	// package of the module: only then can a whole-program analyzer
	// (unreachable) tell dead code from code a binary outside the load
	// reaches.
	Whole bool
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: `go list` enumerates packages and the
// go/importer "source" importer resolves imports (stdlib and module
// packages alike) by compiling them from source. That keeps qcloud-vet
// dependency-free at the cost of requiring an on-disk module — which a
// vet tool has by construction.
type Loader struct {
	ModuleRoot string
	fset       *token.FileSet
	imp        types.Importer
}

// NewLoader locates the enclosing module root (walking up from dir, or
// the working directory if dir is empty) and prepares a loader rooted
// there.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer consults build.Default; pinning its Dir to
	// the module root makes module-path imports (qcloud/internal/...)
	// resolve regardless of the process working directory.
	build.Default.Dir = root
	return &Loader{
		ModuleRoot: root,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s (qcloud-vet must run inside the module)", dir)
		}
		d = parent
	}
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load enumerates the packages matching the patterns (resolved
// relative to the module root, so "./..." always means the whole
// module) and type-checks each, including its test files.
func (l *Loader) Load(patterns ...string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	module, err := l.list([]string{"./..."})
	if err != nil {
		return nil, err
	}
	loaded := make(map[string]bool)
	for _, lp := range listed {
		loaded[lp.ImportPath] = true
	}
	whole := true
	for _, lp := range module {
		if lp.Name == "main" && !loaded[lp.ImportPath] {
			whole = false
		}
	}
	var pkgs []*Pkg
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles)+len(lp.TestGoFiles) == 0 && len(lp.XTestGoFiles) == 0 {
			continue
		}
		if len(lp.GoFiles)+len(lp.TestGoFiles) > 0 {
			pkg, err := l.check(lp.ImportPath, lp.Dir, lp.GoFiles, lp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if len(lp.XTestGoFiles) > 0 {
			pkg, err := l.check(lp.ImportPath+"_test", lp.Dir, nil, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		pkg.Whole = whole
	}
	return pkgs, nil
}

// list runs `go list -json` over the patterns at the module root.
func (l *Loader) list(patterns []string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Dir = l.ModuleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
}

// LoadDir parses and type-checks the .go files of one directory as a
// single package under the claimed import path, treating _test.go
// files as test files. Used by the fixture tests (testdata packages
// are invisible to `go list`).
//
//qcloud:keep loads the testdata fixtures of lint_test.go
func (l *Loader) LoadDir(pkgPath, dir string) (*Pkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names, testNames []string
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		if isTestFileName(e.Name()) {
			testNames = append(testNames, e.Name())
		} else {
			names = append(names, e.Name())
		}
	}
	return l.check(pkgPath, dir, names, testNames)
}

func isTestFileName(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// check parses the named files and type-checks them as one package.
func (l *Loader) check(pkgPath, dir string, goFiles, testGoFiles []string) (*Pkg, error) {
	pkg := &Pkg{
		PkgPath:   pkgPath,
		Fset:      l.fset,
		TestFiles: make(map[*ast.File]bool),
	}
	parse := func(names []string, test bool) error {
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("lint: parsing %s: %v", name, err)
			}
			pkg.Files = append(pkg.Files, f)
			if test {
				pkg.TestFiles[f] = true
			}
		}
		return nil
	}
	if err := parse(goFiles, false); err != nil {
		return nil, err
	}
	if err := parse(testGoFiles, true); err != nil {
		return nil, err
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	tp, err := conf.Check(pkgPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	pkg.Types = tp
	return pkg, nil
}
