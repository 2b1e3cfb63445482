package cloud

import (
	"cmp"
	"slices"

	"qcloud/internal/trace"
)

// traceOrder puts a trace's jobs in the order Session.Run and
// ReadJournalTrace return them: numbered from 1 in fleet order, then
// record order — the exact sequence the serial batch loop produced, so
// traces are bit-identical across worker counts — and sorted by
// (SubmitTime, ID). Each machine's jobs are sorted on their own, by
// the worker that produced them, and merge then interleaves the sorted
// machines.
type traceOrder struct {
	jobs [][]*trace.Job
	keys [][]orderKey
}

// orderKey is a job's place in its machine: its submit instant, as
// Unix seconds and nanoseconds (which, unlike UnixNano, hold any
// time.Time), and its record position, packed below the nanoseconds so
// that comparing the pair compares (SubmitTime, position).
type orderKey struct {
	sec int64
	lo  uint64 // nanoseconds<<posBits | record position
}

// posBits leaves the nanoseconds (under 2^30) the top 30 bits of
// orderKey.lo: a machine holds fewer than 2^34 jobs.
const posBits = 34

func newTraceOrder(machines int) *traceOrder {
	return &traceOrder{jobs: make([][]*trace.Job, machines), keys: make([][]orderKey, machines)}
}

// sort orders machine i's jobs, given in record order, by submit
// instant and then record position. Calls for different machines may
// run concurrently.
func (o *traceOrder) sort(i int, jobs []*trace.Job) {
	keys := make([]orderKey, len(jobs))
	for p, j := range jobs {
		keys[p] = orderKey{sec: j.SubmitTime.Unix(), lo: uint64(j.SubmitTime.Nanosecond())<<posBits | uint64(p)}
	}
	// Positions are unique, so this is a total order: any sort
	// algorithm leaves the same slice.
	slices.SortFunc(keys, func(a, b orderKey) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	o.jobs[i], o.keys[i] = jobs, keys
}

// merge numbers every sorted machine's jobs and appends them to dst in
// (SubmitTime, ID) order. A machine's IDs all lie below the next
// machine's, so a submit instant tied across machines goes to the
// lower fleet index.
func (o *traceOrder) merge(dst []*trace.Job) []*trace.Job {
	base := make([]int64, len(o.jobs))
	n := 0
	for i, jobs := range o.jobs {
		base[i] = int64(n)
		n += len(jobs)
	}
	dst = slices.Grow(dst, n)
	// heads is a binary min-heap holding each machine's next job.
	heads := make([]mergeHead, 0, len(o.keys))
	for i, keys := range o.keys {
		if len(keys) > 0 {
			heads = append(heads, mergeHead{orderKey: keys[0], machine: i})
		}
	}
	for k := len(heads)/2 - 1; k >= 0; k-- {
		siftDown(heads, k)
	}
	for len(heads) > 0 {
		h := &heads[0]
		pos := h.lo & (1<<posBits - 1)
		j := o.jobs[h.machine][pos]
		j.ID = base[h.machine] + int64(pos) + 1
		dst = append(dst, j)
		if keys := o.keys[h.machine]; h.next+1 < len(keys) {
			h.next++
			h.orderKey = keys[h.next]
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	return dst
}

// mergeHead is a machine's next job in merge: its key, the machine,
// and the key's index in the machine's sorted keys.
type mergeHead struct {
	orderKey
	machine, next int
}

// before orders heads by submit instant, then fleet index.
func (a *mergeHead) before(b *mergeHead) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if an, bn := a.lo>>posBits, b.lo>>posBits; an != bn {
		return an < bn
	}
	return a.machine < b.machine
}

func siftDown(h []mergeHead, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
