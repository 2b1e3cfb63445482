package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"qcloud/internal/lint"
)

// The fixture tests are golden-diagnostic tests in the style of
// x/tools' analysistest: each testdata/src/<analyzer>_broken package
// marks every line that must produce a diagnostic with a
// `// want `regex`` comment, and its <analyzer>_fixed twin carries no
// marks and must stay completely quiet. Matching is bidirectional —
// an unmarked diagnostic and an unmatched mark both fail.

var (
	loaderOnce sync.Once
	loaderVal  *lint.Loader
	loaderErr  error
)

// sharedLoader reuses one Loader (and its source-importer cache)
// across the fixture tests; each LoadDir only re-type-checks the
// fixture files themselves.
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = lint.NewLoader("") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// fixtureWant is one expected diagnostic: a regexp anchored to a
// fixture file and line.
type fixtureWant struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, dir string) []fixtureWant {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []fixtureWant
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture %s: %v", e.Name(), err)
		}
		for i, ln := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(ln)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
			}
			wants = append(wants, fixtureWant{file: e.Name(), line: i + 1, re: re})
		}
	}
	return wants
}

// checkFixture loads one testdata package under the claimed import
// path (so Vet's scope filtering is exercised too), runs the full
// suite, and matches diagnostics against the want marks exactly.
func checkFixture(t *testing.T, fixture, pkgPath string) {
	t.Helper()
	checkPkg(t, fixture, loadFixture(t, fixture, pkgPath))
}

func loadFixture(t *testing.T, fixture, pkgPath string) *lint.Pkg {
	t.Helper()
	pkg, err := sharedLoader(t).LoadDir(pkgPath, filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", fixture, err)
	}
	return pkg
}

func checkPkg(t *testing.T, fixture string, pkg *lint.Pkg) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	diags, err := lint.Vet([]*lint.Pkg{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatalf("Vet(%s): %v", fixture, err)
	}
	wants := collectWants(t, dir)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		file := filepath.Base(d.Pos.Filename)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != file || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic at %s:%d: [%s] %s",
				fixture, file, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: missing diagnostic at %s:%d matching %q",
				fixture, w.file, w.line, w.re)
		}
	}
}

// The claimed import paths put each fixture inside (or outside) the
// analyzers' real scopes, so these tests cover the scope filter as
// well as the analyzer bodies.
func TestMapRangeFixtures(t *testing.T) {
	checkFixture(t, "maprange_broken", "qcloud/internal/qsim/lintfixture")
	checkFixture(t, "maprange_fixed", "qcloud/internal/qsim/lintfixture")
}

func TestWallclockFixtures(t *testing.T) {
	checkFixture(t, "wallclock_broken", "qcloud/internal/backend/lintfixture")
	checkFixture(t, "wallclock_fixed", "qcloud/internal/backend/lintfixture")
}

func TestGlobalRandFixtures(t *testing.T) {
	checkFixture(t, "globalrand_broken", "qcloud/internal/workload/lintfixture")
	checkFixture(t, "globalrand_fixed", "qcloud/internal/workload/lintfixture")
}

func TestNoAllocFixtures(t *testing.T) {
	// noalloc is annotation-gated and unscoped; a path outside every
	// Scope list proves it still runs.
	checkFixture(t, "noalloc_broken", "qcloud/lintfixture")
	checkFixture(t, "noalloc_fixed", "qcloud/lintfixture")
}

func TestEventOrderFixtures(t *testing.T) {
	checkFixture(t, "eventorder_broken", "qcloud/internal/cloud/lintfixture")
	checkFixture(t, "eventorder_fixed", "qcloud/internal/cloud/lintfixture")
}

// The same twin claimed in the two other session packages proves the
// analyzer's scope covers internal/tenant and internal/journal too.
func TestEventOrderTenantFixtures(t *testing.T) {
	for _, path := range []string{"qcloud/internal/tenant/lintfixture", "qcloud/internal/journal/lintfixture"} {
		checkFixture(t, "eventorder_broken", path)
		checkFixture(t, "eventorder_fixed", path)
	}
}

// The dispatch twin pins the service-decomposition boundary: the
// wire/queue-ordering layer (qcloud/internal/dispatch/wire) carries
// the deterministic-package contracts, while the daemon layer above
// it (qcloud/internal/dispatch) keeps its wall clock for lease
// deadlines and drain timeouts.
func TestWallclockDispatchFixtures(t *testing.T) {
	checkFixture(t, "wallclock_dispatch_broken", "qcloud/internal/dispatch/wire/lintfixture")
	checkFixture(t, "wallclock_dispatch_fixed", "qcloud/internal/dispatch/wire/lintfixture")
}

// The unreachable twins are each a whole program of their own: their
// roots are their var initializers and init.
func TestUnreachableFixtures(t *testing.T) {
	for _, fixture := range []string{"unreachable_broken", "unreachable_fixed"} {
		pkg := loadFixture(t, fixture, "qcloud/internal/lintfixture")
		pkg.Whole = true
		checkPkg(t, fixture, pkg)
	}
}

// A load without every main package cannot tell dead code from code a
// binary outside it reaches, so the broken twin goes quiet.
func TestUnreachablePartialLoadQuiet(t *testing.T) {
	pkg := loadFixture(t, "unreachable_broken", "qcloud/internal/lintfixture")
	diags, err := lint.Vet([]*lint.Pkg{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("partial load still diagnosed: %s", d)
	}
}

// The same broken source claimed on the daemon side of the boundary
// must go quiet: listing the wire subpackage in DeterministicPackages
// must not pull its parent qcloud/internal/dispatch into scope.
func TestWallclockDispatchDaemonSideQuiet(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir("qcloud/internal/dispatch/lintfixture", filepath.Join("testdata", "src", "wallclock_dispatch_broken"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags, err := lint.Vet([]*lint.Pkg{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("daemon-side package still diagnosed: %s", d)
	}
}

// TestScopeFiltering proves a broken fixture goes quiet when its
// claimed path is outside the analyzer's scope — the wallclock fixture
// under an unscoped path must yield only diagnostics from unscoped
// analyzers (none, for these sources).
func TestScopeFiltering(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir("example.com/elsewhere", filepath.Join("testdata", "src", "wallclock_broken"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags, err := lint.Vet([]*lint.Pkg{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("out-of-scope package still diagnosed: %s", d)
	}
}

func TestSuiteComplete(t *testing.T) {
	want := []string{"maprange", "wallclock", "globalrand", "noalloc", "eventorder", "unreachable"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestVetRepoClean runs the full suite over the whole module — the
// same gate CI's lint job enforces — so `go test ./...` cannot pass
// with a determinism violation anywhere in the tree.
func TestVetRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module vet is slow")
	}
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	diags, err := lint.Vet(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not vet-clean: %s", d)
	}
}
