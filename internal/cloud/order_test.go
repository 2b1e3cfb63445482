package cloud

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"qcloud/internal/par"
	"qcloud/internal/trace"
)

// TestTraceOrderMatchesSort holds traceOrder to the one sort it
// replaces: number the jobs from 1 in fleet order, then record order,
// and sort the lot by (SubmitTime, ID). The machines tie submit
// instants inside one machine and across machines, differ by single
// nanoseconds, reach before 1970 and past 2262 (where UnixNano
// overflows), and some are empty; the machines are sorted at 1, 2 and
// 8 workers.
func TestTraceOrderMatchesSort(t *testing.T) {
	base := time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC)
	instants := []time.Time{
		base,
		base.Add(time.Nanosecond),
		base.Add(-time.Nanosecond),
		base.Add(time.Second),
		base.Add(time.Second + time.Nanosecond),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(1960, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1600, 7, 4, 0, 0, 0, 5, time.UTC),
		time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 999_999_999, time.UTC),
		{},
		base.In(time.FixedZone("east", 5*3600)), // the same instant as base
	}
	sizes := []int{0, 40, 0, 1, 300, 0, 17, 120}
	var seed uint64 = 7
	next := func(n int) int { // a fixed xorshift, so the machines are the same every run
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	machines := make([][]*trace.Job, len(sizes))
	for m, n := range sizes {
		for range n {
			machines[m] = append(machines[m], &trace.Job{SubmitTime: instants[next(len(instants))]})
		}
	}
	// The oracle: concatenate, number, sort.
	var want []*trace.Job
	for _, jobs := range machines {
		want = append(want, jobs...)
	}
	ids := make(map[*trace.Job]int64, len(want))
	for i, j := range want {
		ids[j] = int64(i) + 1
	}
	slices.SortFunc(want, func(a, b *trace.Job) int {
		if c := a.SubmitTime.Compare(b.SubmitTime); c != 0 {
			return c
		}
		return cmp.Compare(ids[a], ids[b])
	})
	for _, workers := range []int{1, 2, 8} {
		for _, j := range want {
			j.ID = -1
		}
		ord := newTraceOrder(len(machines))
		par.ForEach(len(machines), workers, func(m int) { ord.sort(m, machines[m]) })
		got := ord.merge(nil)
		if len(got) != len(want) {
			t.Fatalf("%d workers: merge gave %d jobs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || got[i].ID != ids[want[i]] {
				t.Fatalf("%d workers: position %d holds the job numbered %d (submitted %v), want %d (submitted %v)",
					workers, i, got[i].ID, got[i].SubmitTime, ids[want[i]], want[i].SubmitTime)
			}
		}
	}
	// No jobs at all merge to the dst they are given.
	if got := newTraceOrder(3).merge(nil); got != nil {
		t.Fatalf("an empty fleet merged to %v, want nil", got)
	}
}
