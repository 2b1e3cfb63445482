package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// TestManifestMatchesRegistry keeps BENCHMARK.json and the registry in
// registry.go from drifting apart: later issues cite these names.
func TestManifestMatchesRegistry(t *testing.T) {
	want := registryManifest()
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", manifestPath, err)
	}
	if !reflect.DeepEqual(got, want) {
		file, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("%s disagrees with the registry, which says:\n%s", manifestPath, file)
	}
}

// TestManifestWithinContract checks the registry against the limits a
// BENCHMARK.json must keep.
func TestManifestWithinContract(t *testing.T) {
	m := registryManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v", d.Name, *d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound != nil)
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	// (4 + 22 x workloads) runs must fit in 3420 s; a run takes about
	// run_seconds plus half again for set-up, overshoot and checks.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*float64(m.RunSeconds)*1.6 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, m.RunSeconds)
	}
}

func smokeEnv(t *testing.T, h *host) *env {
	dir := t.TempDir()
	return &env{seed: 3, scale: 0.01, host: h, tmp: filepath.Join(dir, "tmp"), out: filepath.Join(dir, "out")}
}

// smokeChildEnv, when set, lets TestSmoke build qcloud-analyze and run
// it as a child process for the study workload.
const smokeChildEnv = "QCLOUD_BENCH_SMOKE_CHILD"

// TestSmoke runs every workload at about 1 % of its size, plain and
// traced, with the dispatcher and workers in process, and requires
// every registered metric to be emitted, finite and positive where it
// must be, and every output check to pass. It keeps the harness
// compiling and honest as the layers under it change.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			h := inprocHost()
			if w.name == "execute" && testing.Short() {
				t.Skip("seconds of simulation even at 1 %")
			}
			if w.name == "study" {
				// qcloud-analyze is a main package: this one needs a build
				// and a child process, which tier-1 does without.
				if os.Getenv(smokeChildEnv) == "" {
					t.Skipf("set %s=1 to build and run qcloud-analyze", smokeChildEnv)
				}
				bin := t.TempDir()
				if err := buildBinaries("..", bin); err != nil {
					t.Fatal(err)
				}
				h = childHost(bin)
			}
			one := *w
			one.minIters = 1
			e := smokeEnv(t, h)
			res, err := runWorkload(&one, e, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("checks failed: %v", res.Problems)
			}
			checkMetrics(t, res, endToEnd, true)
			if w.name == "study" {
				return // the traced run adds only the probes, which the others cover
			}
			res, err = runWorkload(&one, e, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: checks failed: %v", res.Problems)
			}
			checkMetrics(t, res, perLayer, false)
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// checkMetrics requires res to hold exactly the registered metrics.
func checkMetrics(t *testing.T, res *result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d registered", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("metric %s = %v", d.Name, v)
		case positive && v <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v)
		}
	}
}

// TestCorruptedOutputFailsItsCheck shows the output checks firing: one
// flipped byte in a fetched CSV must fail the run.
func TestCorruptedOutputFailsItsCheck(t *testing.T) {
	w := findWorkload("ingest")
	e := smokeEnv(t, inprocHost())
	it, err := w.iterate(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.verify(e, []*iteration{it})
	if err != nil || v.failed != 0 {
		t.Fatalf("clean run failed its checks: %v %v", err, v.problems)
	}
	out := it.out.(*daemonOut)
	for name, csv := range map[string][]byte{"trace": out.traceCSV, "counts": out.countsCSV} {
		at := len(csv) - 3 // inside the last row's last cell
		csv[at] ^= 1
		v, err := w.verify(e, []*iteration{it})
		if err != nil {
			t.Fatal(err)
		}
		if v.failed == 0 {
			t.Errorf("a flipped byte in the %s CSV went unnoticed", name)
		}
		csv[at] ^= 1
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "ingest", "--seed", "7", "--seconds", "10", "--trace", "0"}, []string{"--workload", "ingest", "--seed", "7", "--seconds", "10", "-trace=0"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace=1"}},
		{[]string{"-trace", "-repeat", "2"}, []string{"-trace=1", "-repeat", "2"}},
		{[]string{"-trace=1"}, []string{"-trace=1"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "dispatch", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "cloud", Start: 50, End: 90},
		{ID: 3, Parent: 2, Layer: "journal", Start: 60, End: 70},
	}
	want := map[string]int64{"bench": 30, "dispatch": 30, "cloud": 30, "journal": 10}
	if got := selfByLayer(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfByLayer = %v, want %v", got, want)
	}
}
