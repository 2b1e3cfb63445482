package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestGenerateScaleMatchesPaper(t *testing.T) {
	specs := Generate(Config{Seed: 1})
	// "over 6000 jobs ... over 600,000 quantum circuits ... almost 10
	// billion shots": check orders of magnitude.
	if len(specs) < 4500 || len(specs) > 9000 {
		t.Fatalf("jobs = %d, want ~6200", len(specs))
	}
	var circuits, trials int64
	for _, s := range specs {
		circuits += int64(s.BatchSize)
		trials += int64(s.BatchSize) * int64(s.Shots)
	}
	if circuits < 200_000 || circuits > 3_000_000 {
		t.Fatalf("circuits = %d, want order 600k", circuits)
	}
	if trials < 1e9 || trials > 3e10 {
		t.Fatalf("trials = %d, want order 10^10", trials)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42})
	b := Generate(Config{Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("spec %d differs", i)
		}
	}
	c := Generate(Config{Seed: 43})
	if len(a) == len(c) {
		same := true
		for i := range a {
			if *a[i] != *c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical workloads")
		}
	}
}

func TestGenerateSortedAndInWindow(t *testing.T) {
	cfg := Config{Seed: 2}.withDefaults()
	specs := Generate(Config{Seed: 2})
	for i, s := range specs {
		if i > 0 && s.SubmitTime.Before(specs[i-1].SubmitTime) {
			t.Fatal("specs not sorted by submit time")
		}
		if s.SubmitTime.Before(cfg.Start) || !s.SubmitTime.Before(cfg.End) {
			t.Fatalf("submit %v outside window", s.SubmitTime)
		}
	}
}

func TestGenerateGrowthIsExponential(t *testing.T) {
	specs := Generate(Config{Seed: 3})
	// Compare job counts in the first year vs the last year.
	early, late := 0, 0
	cut1 := backend.StudyStart.AddDate(1, 0, 0)
	for _, s := range specs {
		if s.SubmitTime.Before(cut1) {
			early++
		} else {
			late++
		}
	}
	if late < 5*early {
		t.Fatalf("growth too flat: %d early vs %d late", early, late)
	}
	if early == 0 {
		t.Fatal("no early jobs at all")
	}
}

func TestGenerateTargetsOnlineMachinesOnly(t *testing.T) {
	byName := backend.FleetByName()
	for _, s := range Generate(Config{Seed: 4}) {
		m, ok := byName[s.Machine]
		if !ok {
			t.Fatalf("unknown machine %s", s.Machine)
		}
		if !m.AvailableAt(s.SubmitTime) {
			t.Fatalf("job targets %s before online/after retirement at %v", s.Machine, s.SubmitTime)
		}
		if s.Width > m.NumQubits() {
			t.Fatalf("width %d exceeds %s size %d", s.Width, s.Machine, m.NumQubits())
		}
	}
}

func TestGenerateBatchAndShotRanges(t *testing.T) {
	var batches, shots []float64
	for _, s := range Generate(Config{Seed: 5}) {
		if s.BatchSize < 1 || s.BatchSize > 900 {
			t.Fatalf("batch %d outside [1,900]", s.BatchSize)
		}
		if s.Shots > 8192 {
			t.Fatalf("shots %d above the 8192 cap", s.Shots)
		}
		batches = append(batches, float64(s.BatchSize))
		shots = append(shots, float64(s.Shots))
	}
	// Wide batch spread (Fig 11): small and maxed batches both present.
	if stats.Min(batches) != 1 || stats.Max(batches) != 900 {
		t.Fatalf("batch range [%v,%v], want [1,900]", stats.Min(batches), stats.Max(batches))
	}
	if stats.Quantile(batches, 0.5) > 200 {
		t.Fatal("median batch should be modest (most users underbatch)")
	}
	if stats.Max(shots) != 8192 {
		t.Fatal("some jobs should use max shots")
	}
}

func TestGenerateFeaturesConsistent(t *testing.T) {
	for _, s := range Generate(Config{Seed: 6}) {
		if s.TotalGateOps <= 0 || s.TotalDepth <= 0 {
			t.Fatalf("degenerate features: %+v", s)
		}
		if s.CXTotal > s.TotalGateOps {
			t.Fatal("CX count cannot exceed total gates")
		}
		if s.MemSlots != s.Width {
			t.Fatal("mem slots should equal width")
		}
		if s.PatienceSec <= 0 {
			t.Fatal("patience must be positive")
		}
	}
}

func TestGeneratePublicUsersStayPublic(t *testing.T) {
	byName := backend.FleetByName()
	// user-01 is not privileged (only every third user is).
	for _, s := range Generate(Config{Seed: 7}) {
		if s.User == "user-01" && !byName[s.Machine].Public {
			t.Fatalf("non-privileged user on private machine %s", s.Machine)
		}
	}
}

func TestMonthsBetween(t *testing.T) {
	ms := monthsBetween(
		time.Date(2020, 11, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC))
	if len(ms) != 3 { // Nov (partial), Dec, Jan
		t.Fatalf("months = %v", ms)
	}
}

func TestWidthGrowsWithProgress(t *testing.T) {
	r := newRand(9)
	var early, late []float64
	for i := 0; i < 4000; i++ {
		early = append(early, float64(pickWidth(r, 0)))
		late = append(late, float64(pickWidth(r, 1)))
	}
	if stats.Mean(late) <= stats.Mean(early) {
		t.Fatal("widths should grow over the study")
	}
	if math.IsNaN(stats.Mean(early)) {
		t.Fatal("width sampling broken")
	}
}

// BenchmarkGenerate times the journaled workload's stream: 100 000
// jobs over 90 days.
func BenchmarkGenerate(b *testing.B) {
	start, end := days(90)
	cfg := Config{Seed: 1, TotalJobs: 100_000, Start: start, End: end}
	b.ReportAllocs()
	for b.Loop() {
		Generate(cfg)
	}
}

// TestGenerateMidMonthStart draws a window that opens mid-month: its
// first month's jobs must fall inside the window, not from the 1st.
func TestGenerateMidMonthStart(t *testing.T) {
	start := backend.StudyStart.Add(40 * 24 * time.Hour)
	end := backend.StudyStart.Add(90 * 24 * time.Hour)
	specs := Generate(Config{Seed: 1, TotalJobs: 1000, Start: start, End: end})
	if len(specs) == 0 {
		t.Fatal("no specs")
	}
	early := 0
	for _, s := range specs {
		if s.SubmitTime.Before(start) || !s.SubmitTime.Before(end) {
			early++
		}
	}
	if early > 0 {
		t.Fatalf("%d of %d specs fall outside [%v, %v)", early, len(specs), start, end)
	}
}

// TestGenerateEmptyWindow: a window that ends at or before its start
// holds no jobs.
func TestGenerateEmptyWindow(t *testing.T) {
	start := backend.StudyStart.Add(40 * 24 * time.Hour)
	for _, end := range []time.Time{start, start.Add(-time.Hour)} {
		if specs := Generate(Config{Seed: 1, Start: start, End: end}); len(specs) != 0 {
			t.Fatalf("window [%v, %v) generated %d specs", start, end, len(specs))
		}
	}
}

// smallFleet is the fleet's machines of at most 5 qubits: a stream on
// it builds its few templates (one per kind and width) in its first
// hundreds of jobs.
func smallFleet() []*backend.Machine {
	var small []*backend.Machine
	for _, m := range backend.Fleet() {
		if m.NumQubits() <= 5 {
			small = append(small, m)
		}
	}
	return small
}

// TestGenerateAllocsGrowWithMonths: past its templates, Generate
// allocates per month, not per job, and a job allocates nothing. The
// two streams build the same templates; only a BV template's secret,
// and with it its circuit's size, differs between them.
func TestGenerateAllocsGrowWithMonths(t *testing.T) {
	start, end := days(90)
	allocs := func(jobs int) float64 {
		cfg := Config{Seed: 1, TotalJobs: jobs, Start: start, End: end, Machines: smallFleet()}
		return testing.AllocsPerRun(2, func() { Generate(cfg) })
	}
	few, many := allocs(1000), allocs(100_000)
	t.Logf("allocations: %v at 1 000 jobs, %v at 100 000", few, many)
	if many > few*1.05 {
		t.Fatalf("100 000 jobs allocate %v times, 1 000 jobs %v", many, few)
	}

	g := newGenerator(Config{Seed: 1, Start: start, End: end, Machines: smallFleet()}.withDefaults())
	g.setMonth(start, start.AddDate(0, 1, 0))
	var s cloud.JobSpec
	job := func() {
		g.makeJob(&s, g.users[g.r.Intn(len(g.users))], g.randomOffset(), 0.5)
	}
	for range 1000 {
		job() // builds every template
	}
	if a := testing.AllocsPerRun(1000, job); a != 0 {
		t.Fatalf("a job allocates %v times", a)
	}
}

// TestSortKeysTotalOrder: the month order is the (offset, generation
// index) order, ties included, and permute lays the slab out in it.
func TestSortKeysTotalOrder(t *testing.T) {
	r := newRand(3)
	for _, n := range []int{0, 1, 2, 100, 5000} {
		keys := make([]jobKey, n)
		for i := range keys {
			// Few distinct offsets, in every byte a month's offset uses.
			keys[i] = jobKey{at: time.Duration(r.Intn(16)) << (8 * r.Intn(7)), idx: i}
		}
		want := slices.Clone(keys)
		slices.SortFunc(want, func(a, b jobKey) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.idx, b.idx))
		})
		got := sortKeys(keys, make([]jobKey, n))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortKeys is not the (offset, index) order", n)
		}
		slab := make([]cloud.JobSpec, n)
		for i := range slab {
			slab[i].BatchSize = i
		}
		permute(slab, got)
		for k := range slab {
			if slab[k].BatchSize != want[k].idx {
				t.Fatalf("n=%d: slab[%d] holds job %d, want %d", n, k, slab[k].BatchSize, want[k].idx)
			}
		}
	}
}
