package cloud

import (
	"math"
	"sort"
	"testing"

	"qcloud/internal/backend"
)

// TestDiurnalCacheMatchesDiurnalFactor sweeps two years of nondecreasing
// query times through the segment cache and requires bit-equality with
// diurnalFactor at every one. The sweep holds interior points of every
// bucket plus, around every hour-of-day and day boundary and around the
// cache's own guard offsets, the boundary itself and its ±1..3 ulp
// neighbours — the queries where a float bucket decision could part
// from the exact one. It is repeated from several non-zero stream
// starts, since a stream's first query can land anywhere in a bucket.
func TestDiurnalCacheMatchesDiurnalFactor(t *testing.T) {
	var times []float64
	around := func(x float64) {
		lo, hi := x, x
		times = append(times, x)
		for k := 0; k < 3; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			times = append(times, lo, hi)
		}
	}
	for day := 0; day <= 731; day++ {
		base := float64(day) * 86400
		for _, h := range diurnalBuckets[:len(diurnalBuckets)-1] {
			b := base + h*3600
			if b > 0 {
				around(b - diurnalGuardSec)
			}
			around(b)
			around(b + diurnalGuardSec)
		}
		for k := 0; k < 40; k++ {
			times = append(times, base+float64(k)*2160+17.25)
		}
	}
	sort.Float64s(times)
	times = times[sort.SearchFloat64s(times, 0):] // sim-seconds are never negative

	for _, start := range []float64{0, 0.5, 3*86400 + 7*3600, 12345678.9, 400*86400 - diurnalGuardSec} {
		var bs backgroundStream
		first := sort.SearchFloat64s(times, start)
		hits := 0
		for _, q := range times[first:] {
			cached := q >= bs.segStart && q < bs.segEnd
			if got, want := bs.diurnal(q), diurnalFactor(q); got != want {
				t.Fatalf("start %v: diurnal(%v) = %v, diurnalFactor = %v (cached=%v, segment [%v, %v))",
					start, q, got, want, cached, bs.segStart, bs.segEnd)
			}
			if cached {
				hits++
			}
		}
		// ~40 interior points a day, 4 cold queries a day: the cache
		// must be answering most of them or the test proves nothing.
		if n := len(times) - first; hits < n/2 {
			t.Fatalf("start %v: only %d of %d queries were answered from the cache", start, hits, n)
		}
	}

	// The cache is keyed on both ends of its segment, so an earlier query
	// after a later one (a restored stream) is still exact.
	var bs backgroundStream
	for _, q := range []float64{9 * 86400, 9*86400 + 8*3600, 2*86400 + 14*3600, 9*86400 + 8*3600 + 1} {
		if got, want := bs.diurnal(q), diurnalFactor(q); got != want {
			t.Fatalf("out-of-order diurnal(%v) = %v, diurnalFactor = %v", q, got, want)
		}
	}
}

// TestBackgroundUserIndex pins which names share a background user's
// accumulator: exactly the canonical "bg-<n>" spellings inside the pool.
func TestBackgroundUserIndex(t *testing.T) {
	names := backgroundUserNames(1200)
	for _, n := range []int{0, 7, 10, 999, 1199} {
		if got, ok := backgroundUserIndex(names[n], names); !ok || got != n {
			t.Fatalf("backgroundUserIndex(%q) = %d, %v; want %d", names[n], got, ok, n)
		}
	}
	for _, name := range []string{
		"bg-1200", "bg-99999", "bg-007", "bg-00", "bg-+7", "bg--7", "bg-7 ", "bg-7x", "bg-", "bg",
		"BG-7", "u-7", "", "bg-99999999999999999999",
	} {
		if n, ok := backgroundUserIndex(name, names); ok {
			t.Fatalf("backgroundUserIndex(%q) resolved to background user %d; it is an ordinary name", name, n)
		}
	}
}

// TestJobHeapPopClearsVacatedSlot: a popped record goes back to the
// machine's free list and is handed out again, so the heap's backing
// array must not keep a second pointer to it beyond its length.
func TestJobHeapPopClearsVacatedSlot(t *testing.T) {
	var h jobHeap
	for i := 0; i < 5; i++ {
		h.push(&queuedJob{priority: float64(5 - i), seq: int64(i)})
	}
	for len(h) > 0 {
		h.pop()
		if stale := h[:len(h)+1][len(h)]; stale != nil {
			t.Fatalf("pop left %+v in the vacated slot at length %d", stale, len(h))
		}
	}
}

// TestBackgroundSteadyStateAllocs pins the fast path: once its queue
// records, accumulators and sample slices are warm, an unobserved,
// unjournaled machine advances through background jobs without
// allocating per job. What remains is amortised growth of the
// pending-sample and wait-ratio slices.
func TestBackgroundSteadyStateAllocs(t *testing.T) {
	m, err := backend.FindMachine(backend.Fleet(), "ibmq_16_melbourne")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(Config{Seed: 3, Machines: []*backend.Machine{m}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ms := sess.sims[0]
	const day = 86400.0
	to := ms.toSec(ms.online) + 150*day
	ms.advanceTo(to) // warm-up: queue depth, free list and all 1200 accumulators reach steady state
	var jobs []int64
	allocs := testing.AllocsPerRun(1, func() {
		before := ms.mstats.BackgroundJobs
		to += 340 * day
		ms.advanceTo(to)
		jobs = append(jobs, ms.mstats.BackgroundJobs-before)
	})
	measured := jobs[len(jobs)-1] // AllocsPerRun makes one unmeasured call first
	if measured < 100000 {
		t.Fatalf("measured run advanced through %d background jobs, want >= 100000", measured)
	}
	perJob := allocs / float64(measured)
	t.Logf("%.0f allocations over %d background jobs = %.5f per job", allocs, measured, perJob)
	if perJob >= 0.05 {
		t.Fatalf("%.5f allocations per background job, want < 0.05", perJob)
	}
}
