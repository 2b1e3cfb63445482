package cloud

import (
	"math"
	"math/rand"
	"reflect"
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

// TestRampCacheMatchesExpression sweeps t across the demand ramp's
// saturation instant — the instant itself and its ±1..3 ulp
// neighbours, plus points before the ramp and long after it — for
// several RampFloor/RampFraction values, and requires the cached
// rateAt to equal the uncached expression with ==. A floor of -1.7
// saturates at 1.0000000000000002, not 1: the cache must hold the
// value the expression produced, not assume 1.
func TestRampCacheMatchesExpression(t *testing.T) {
	const rampStart, rampEnd = 3.5e6, 7.1e7
	for _, floor := range []float64{0.35, 0, 0.9, 1.3, -1.7} {
		for _, fraction := range []float64{0.5, 1e-9, 0.3, 1, 2.5} {
			model := &BackgroundModel{RampFloor: floor, RampFraction: fraction}
			bs := &backgroundStream{
				model: model, peakRate: 0.0123,
				rampStartSec: rampStart,
				rampSpan:     math.Max(rampEnd-rampStart, 1),
				rampFrac:     math.Max(fraction, 1e-9),
			}
			sat := rampStart + bs.rampFrac*bs.rampSpan
			times := []float64{0, rampStart - 1, rampStart, rampStart + 1, (rampStart + sat) / 2}
			lo, hi := sat, sat
			for k := 0; k < 3; k++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				times = append(times, lo, hi)
			}
			times = append(times, sat, sat+1, rampEnd, 2*rampEnd)
			sort.Float64s(times)
			for _, q := range times {
				frac := (q - bs.rampStartSec) / bs.rampSpan
				ramp := floor + (1-floor)*math.Min(1, math.Max(frac, 0)/bs.rampFrac)
				want := bs.peakRate * ramp * diurnalFactor(q) * 1
				if got := bs.rateAt(q); got != want {
					t.Fatalf("floor %v fraction %v: rateAt(%v) = %v, expression %v (cached=%v)",
						floor, fraction, q, got, want, bs.rampDone)
				}
			}
			if !bs.rampDone {
				t.Fatalf("floor %v fraction %v: the sweep past saturation never cached the ramp", floor, fraction)
			}
		}
	}
}

// TestCountingSourceCountsSteps drives a countingSource through a
// mixed sequence of the rand.Rand draws the simulation makes (Float64,
// ExpFloat64, NormFloat64, Intn(1200), some of which loop on
// rejection) and requires the draw count to be the number of source
// steps: the stream so far equals the stdlib's, and a fresh source
// fast-forwarded by the count continues it exactly, as restore does.
func TestCountingSourceCountsSteps(t *testing.T) {
	const seed = 7919*3 + 41
	cs := newCountingSource(seed)
	r, ref := rand.New(cs), rand.New(rand.NewSource(seed))
	for k := 0; k < 5000; k++ {
		var got, want float64
		switch k % 4 {
		case 0:
			got, want = r.Float64(), ref.Float64()
		case 1:
			got, want = r.ExpFloat64(), ref.ExpFloat64()
		case 2:
			got, want = r.NormFloat64(), ref.NormFloat64()
		default:
			got, want = float64(r.Intn(1200)), float64(ref.Intn(1200))
		}
		if got != want {
			t.Fatalf("draw %d: %v, stdlib %v", k, got, want)
		}
	}
	if cs.draws < 5000 {
		t.Fatalf("draws = %d after 5000 derived draws", cs.draws)
	}
	ff := newCountingSource(seed)
	for ff.draws < cs.draws {
		ff.Uint64()
	}
	for k := 0; k < 700; k++ {
		if a, b := ff.src.Uint64(), cs.src.Uint64(); a != b {
			t.Fatalf("fast-forward by draws=%d: step %d gives %d, the live source %d", cs.draws, k, a, b)
		}
	}
}

// TestCountingSourceSeedResetsDraws: reseeding restarts the count with
// the stream, so a checkpointed count is always steps since the seed
// restore replays.
func TestCountingSourceSeedResetsDraws(t *testing.T) {
	cs := newCountingSource(1)
	r := rand.New(cs)
	for k := 0; k < 100; k++ {
		r.Float64()
	}
	r.Seed(42)
	if cs.draws != 0 {
		t.Fatalf("draws = %d after Seed, want 0", cs.draws)
	}
	ref := rand.NewSource(42).(rand.Source64)
	for k := 0; k < 10; k++ {
		if got, want := cs.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("reseeded step %d: %d, stdlib %d", k, got, want)
		}
	}
	if cs.draws != 10 {
		t.Fatalf("draws = %d after 10 steps from Seed, want 10", cs.draws)
	}
}

// TestCountingSourceNoAlloc pins the //qcloud:noalloc methods.
func TestCountingSourceNoAlloc(t *testing.T) {
	cs := newCountingSource(5)
	var sink uint64
	if n := testing.AllocsPerRun(20, func() {
		sink += cs.Uint64() + uint64(cs.Int63())
		cs.Seed(6)
	}); n != 0 {
		t.Fatalf("countingSource allocates %v per call, want 0", n)
	}
	_ = sink
}

// TestEnqueueOverwritesRecycledRecord: enqueue stores a recycled
// record's fields one by one instead of assigning a fresh literal, so
// every field must be among them. The field count is a tripwire for a
// field added to queuedJob but not to enqueue.
func TestEnqueueOverwritesRecycledRecord(t *testing.T) {
	if n := reflect.TypeOf(queuedJob{}).NumField(); n != 11 {
		t.Fatalf("queuedJob has %d fields, enqueue stores 11: store the new one there and update this count", n)
	}
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
	spec := &JobSpec{User: "u"}
	dirty := &queuedJob{
		h: &JobHandle{spec: spec}, submit: 1, execSec: 2, patience: 3, priority: 4, seq: 5,
		acct: &acct{}, user: "stale", id: 6, attempt: 7, pendingAtSubmit: 8,
	}
	ms.free = append(ms.free, dirty)
	a := &ms.bgAccts[0]
	pending, seq := len(ms.queue), ms.seq+1
	ms.enqueue(nil, 100, 20, 30, ms.bgNames[0], a)
	want := queuedJob{
		submit: 100, execSec: 20, patience: 30, priority: 100 + fairSharePenalty*a.charged(100),
		seq: seq, acct: a, user: ms.bgNames[0], id: seq, pendingAtSubmit: pending,
	}
	if *dirty != want {
		t.Fatalf("recycled record after enqueue = %+v, want %+v", *dirty, want)
	}
}
