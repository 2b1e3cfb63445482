package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/dispatch"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/qsim"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// minimalExec is the exec plan that makes qsim's share of a unit
// negligible, so queue, WAL and HTTP do nearly all the work.
var minimalExec = wire.ExecCaps{MaxWidth: 2, MaxBatch: 1, MaxShots: 1}

// execKinds are the circuit families wire.BuildCircuit knows.
var execKinds = []string{"ghz", "bv", "qft", "qaoa", "vqe", "random"}

// daemonCfg describes one dispatcher + workers workload.
type daemonCfg struct {
	jobs    int     // specs at full scale (the generator draws around it)
	days    float64 // submission and trace-plane window
	wide    bool    // force the exec plan wide (execute)
	workers int
	// mixed makes the submit phase one connection sending submits,
	// duplicates and cancels while the worker already drains.
	mixed bool
	// readBack > 0 makes everything up to the drained, stopped state
	// directory set-up, and the timed path that many dispatcher restarts
	// on it, each fetching both CSVs: the pass reads what a run wrote and
	// writes nothing, so replay and readout are all of its jobs_per_s.
	readBack int
}

// pullSize is the workers' -units: fixed where the drain is measured.
func (c daemonCfg) pullSize() int {
	if c.readBack > 0 {
		return fillUnits
	}
	return workerUnits
}

// at sizes the workload for a run.
func (c daemonCfg) at(e *env) daemonCfg {
	lo := 24
	if c.wide {
		lo = 6
	}
	c.jobs, c.days = e.n(c.jobs, lo), e.days(c.days)
	return c
}

func (c daemonCfg) gen(seed int64) workload.Config {
	start := backend.StudyStart
	return workload.Config{Seed: seed, TotalJobs: c.jobs, Start: start, End: start.Add(time.Duration(c.days * 24 * float64(time.Hour)))}
}

// plans generates about jobs specs of the workload's shape from the
// seed.
func (c daemonCfg) plans(seed int64, jobs int) []wire.Spec {
	g := c.gen(seed)
	g.TotalJobs = jobs
	specs := workload.Generate(g)
	plans := make([]wire.Spec, len(specs))
	for i, js := range specs {
		plans[i] = wire.Plan(js, minimalExec, seed, i)
		if c.wide {
			// The family cycles too: which families a seed happens to draw
			// would otherwise decide the cost of a job.
			plans[i].ExecKind = execKinds[i%len(execKinds)]
			plans[i].ExecWidth = 16 + (i/len(execKinds))%3
			plans[i].ExecBatch = 2
			plans[i].ExecShots = 512
		}
	}
	return plans
}

// daemonOut is what one daemon iteration leaves for verify.
type daemonOut struct {
	plans []wire.Spec
	seqOf []int64 // seq the dispatcher assigned to plans[i]
	// cancelAsked marks the specs the open loop asked to cancel.
	cancelAsked         []bool
	traceCSV, countsCSV []byte
	// sameAfterRestart: the restarted dispatcher served the same bytes.
	sameAfterRestart bool
	status           wire.StatusResponse
	walBytes         int64
}

// oneConn is a client that owns exactly one connection.
func oneConn(url string) *dispatch.Client {
	return &dispatch.Client{Server: url, HTTP: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c daemonCfg) iterate(e *env, tr *tracer) (it *iteration, err error) {
	c = c.at(e)
	cpu0 := selfCPU()
	it = &iteration{}
	out := &daemonOut{}
	it.out = out

	// Set-up: inputs from the seed, a fresh state dir, a dispatcher
	// that answers.
	t0 := time.Now()
	sp := tr.begin(rootSpan, "workload", "generate+plan", -1)
	out.plans = c.plans(e.seed, c.jobs)
	tr.end(sp)
	jobs := len(out.plans)
	it.jobs = jobs
	dir, err := e.mkdir("state-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var procs []*proc // everything started, so a failure still reaps it
	defer func() {
		for _, p := range procs {
			if _, serr := p.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	disp, err := e.host.dispatcher(dir, e.seed, c.days)
	if err != nil {
		return nil, err
	}
	procs = append(procs, disp)
	ctl := oneConn(disp.url)
	if err := awaitStatus(ctl); err != nil {
		return nil, err
	}
	it.setup = time.Since(t0)

	startWorkers := func() error {
		for i := 0; i < c.workers; i++ {
			w, err := e.host.worker(disp.url, fmt.Sprintf("w%d", i), c.pullSize())
			if err != nil {
				return err
			}
			procs = append(procs, w)
		}
		return nil
	}

	// Accept, then process.
	out.seqOf = make([]int64, jobs)
	tA := time.Now()
	spA := tr.begin(rootSpan, "bench", "phase.accept", -1)
	if c.mixed {
		if err := startWorkers(); err != nil {
			return nil, err
		}
		ops, failed := mixedOps(ctl, out.plans, out.seqOf, tr, spA, nil)
		it.ops, it.failed = it.ops+ops, it.failed+failed
	} else {
		closedLoop(disp.url, it, out, tr, spA)
	}
	tr.end(spA)
	it.phases[phaseAccept] = time.Since(tA)

	tB := time.Now()
	spB := tr.begin(rootSpan, "bench", "phase.process", -1)
	it.ops++
	if err := ctl.Seal(); err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	if !c.mixed {
		if err := startWorkers(); err != nil {
			return nil, err
		}
	}
	if err := awaitDrained(ctl, jobs); err != nil {
		return nil, err
	}
	tr.end(spB)
	it.phases[phaseProcess] = time.Since(tB)

	// Readout.
	fetch := func(parent int) (traceCSV, counts []byte, err error) {
		it.ops += 2
		sp := tr.begin(parent, "dispatch", "http.result.trace", -1)
		traceCSV, err = ctl.TraceCSV()
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("fetching the trace CSV: %w", err)
		}
		sp = tr.begin(parent, "dispatch", "http.result.counts", -1)
		counts, err = ctl.CountsCSV(false)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("fetching the counts CSV: %w", err)
		}
		return traceCSV, counts, nil
	}
	tC := time.Now()
	spC := tr.begin(rootSpan, "bench", "phase.readout", -1)
	if out.traceCSV, out.countsCSV, err = fetch(spC); err != nil {
		return nil, err
	}
	tr.end(spC)
	it.phases[phaseReadout] = time.Since(tC)

	// Reopen: stop everything, start a dispatcher on the same state
	// dir, time until it answers. What it reads is what the phases
	// above wrote.
	for _, p := range procs {
		u, err := p.stop()
		if err != nil {
			return nil, err
		}
		it.used = it.used.add(u)
	}
	if c.readBack > 0 {
		// All of that was set-up; only the restarts below count.
		it.setup, it.phases = time.Since(t0), [numPhases]time.Duration{}
		it.used, cpu0 = usage{}, selfCPU()
		it.jobs = jobs * c.readBack
	}
	out.sameAfterRestart = true
	for r := 0; r < max(c.readBack, 1); r++ {
		tD := time.Now()
		spD := tr.begin(rootSpan, "dispatch", "phase.reopen", -1)
		again, err := e.host.dispatcher(dir, e.seed, c.days)
		if err != nil {
			return nil, err
		}
		procs = append(procs, again)
		ctl = oneConn(again.url)
		if err := awaitStatus(ctl); err != nil {
			return nil, err
		}
		tr.end(spD)
		it.phases[phaseReopen] += time.Since(tD)

		// The restarted dispatcher must serve the same bytes; only a
		// read-back pass times that.
		tE, spE := time.Now(), -1
		if c.readBack > 0 {
			spE = tr.begin(rootSpan, "bench", "phase.readout", -1)
		}
		traceAgain, countsAgain, err := fetch(spE)
		if err != nil {
			return nil, err
		}
		if c.readBack > 0 {
			tr.end(spE)
			it.phases[phaseReadout] += time.Since(tE)
		}
		out.sameAfterRestart = out.sameAfterRestart && bytes.Equal(traceAgain, out.traceCSV) && bytes.Equal(countsAgain, out.countsCSV)
		if out.status, err = ctl.Status(); err != nil {
			return nil, err
		}
		u, err := again.stop()
		if err != nil {
			return nil, err
		}
		it.used.cpu += u.cpu
		it.used.rssKB = max(it.used.rssKB, u.rssKB)
	}
	if it.used.cpu == 0 { // the in-process host: the programs ran in this process
		it.used.cpu = selfCPU() - cpu0
	}
	out.walBytes, err = walBytes(dir)
	return it, err
}

// closedLoop is the submit phase of ingest and execute: two
// connections, each sending its next submission when the previous one
// is acked, unique keys.
func closedLoop(url string, it *iteration, out *daemonOut, tr *tracer, parent int) {
	const conns = 2
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := oneConn(url)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(out.plans) {
					return
				}
				sp := tr.begin(parent, "dispatch", "http.submit", i)
				resp, err := cl.Submit(fmt.Sprintf("job/%d", i), out.plans[i])
				tr.end(sp)
				if err != nil || resp.Dup {
					failed.Add(1)
					out.seqOf[i] = -1
					continue
				}
				out.seqOf[i] = resp.Seq
			}
		}()
	}
	wg.Wait()
	it.ops += len(out.plans)
	it.failed += int(failed.Load())
}

// mixed's operation stream: every spec is submitted, every 10th is
// cancelled right after its ack and every 5th is submitted again under
// the same key, so submits, duplicate lookups and cancels contend with
// Pull, Result and Stats for the queue lock.
func cancelSent(i int) bool  { return i%10 == 9 }
func resubmitted(i int) bool { return i%5 == 4 }

// mixedOps sends that stream on one connection, each operation when the
// previous one is acked, and records the assigned seqs in seqOf. around,
// if set, wraps every operation: the open-loop probe paces and times
// them with it. It returns the operations sent and those that failed.
func mixedOps(cl *dispatch.Client, plans []wire.Spec, seqOf []int64, tr *tracer, parent int, around func(send func())) (ops, failed int) {
	if around == nil {
		around = func(send func()) { send() }
	}
	do := func(name string, i int, op func() bool) {
		around(func() {
			sp := tr.begin(parent, "dispatch", name, i)
			ok := op()
			tr.end(sp)
			ops++
			if !ok {
				failed++
			}
		})
	}
	for i := range plans {
		key := fmt.Sprintf("job/%d", i)
		do("http.submit", i, func() bool {
			resp, err := cl.Submit(key, plans[i])
			seqOf[i] = resp.Seq
			if err != nil || resp.Dup {
				seqOf[i] = -1
			}
			return seqOf[i] >= 0
		})
		if cancelSent(i) {
			do("http.cancel", i, func() bool {
				_, err := cl.Cancel(key, 0)
				return err == nil // losing the race with the worker is not a failure
			})
		}
		if resubmitted(i) {
			do("http.submit.dup", i, func() bool {
				resp, err := cl.Submit(key, plans[i])
				return err == nil && resp.Dup && resp.Seq == seqOf[i]
			})
		}
	}
	return ops, failed
}

// --- references and checks -----------------------------------------------

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// referenceTrace is the trace plane computed in process: the specs in
// seq order through a session, cancelling the cancelled ones.
func referenceTrace(seed int64, days float64, ordered []wire.Spec, cancelled []bool) ([]byte, error) {
	start := backend.StudyStart
	sess, err := cloud.Open(cloud.Config{
		Seed: seed, Start: start, Workers: 2,
		End: start.Add(time.Duration(days * 24 * float64(time.Hour))),
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for i := range ordered {
		h, err := sess.SubmitRetried(ordered[i].JobSpec(), 0)
		if err != nil {
			return nil, err
		}
		if cancelled != nil && cancelled[i] {
			if err := sess.Cancel(h); err != nil {
				return nil, err
			}
		}
	}
	tr, err := sess.Run()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = trace.WriteCSV(&buf, tr.Jobs)
	return buf.Bytes(), err
}

// referenceCounts is the counts plane computed in process, keyed by
// the spec's index in the generated stream.
func referenceCounts(plans []wire.Spec) ([][]string, error) {
	rs, err := wire.RunLocal(plans, qsim.Parallelism{Workers: 2})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		return nil, err
	}
	return rows[1:], nil
}

// byIndex rewrites a counts CSV from dispatcher seq to spec index and
// sorts it, so that runs whose two connections interleaved differently
// compare equal. It returns the rows without the header.
func byIndex(countsCSV []byte, seqOf []int64) ([][]string, error) {
	rows, err := csv.NewReader(bytes.NewReader(countsCSV)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) != len(seqOf)+1 {
		return nil, fmt.Errorf("counts CSV has %d rows for %d jobs", len(rows)-1, len(seqOf))
	}
	index := make(map[string]int, len(seqOf))
	for i, s := range seqOf {
		index[strconv.FormatInt(s, 10)] = i
	}
	rows = rows[1:]
	for _, r := range rows {
		i, ok := index[r[0]]
		if !ok {
			return nil, fmt.Errorf("counts CSV names seq %s, which no submission was given", r[0])
		}
		r[0] = strconv.Itoa(i)
	}
	sort.Slice(rows, func(a, b int) bool {
		x, _ := strconv.Atoi(rows[a][0])
		y, _ := strconv.Atoi(rows[b][0])
		return x < y
	})
	return rows, nil
}

func hashRows(rows [][]string) string {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.WriteAll(rows)
	return sha(buf.Bytes())
}

func (c daemonCfg) verify(e *env, its []*iteration) (*verdict, error) {
	c = c.at(e)
	v := &verdict{}
	var ref [][]string
	for n, it := range its {
		out := it.out.(*daemonOut)
		jobs := len(out.plans)
		v.fact(e.golden, "jobs", strconv.Itoa(jobs))

		// The dispatcher numbered the submissions in arrival order; the
		// reference replays them in that order.
		ordered := make([]wire.Spec, jobs)
		taken := make([]bool, jobs)
		perm := true
		for i, s := range out.seqOf {
			if s < 0 || int(s) >= jobs || taken[s] {
				perm = false
				break
			}
			taken[s] = true
			ordered[s] = out.plans[i]
		}
		v.check(perm, "iteration %d: acked seqs are not a permutation of 0..%d", n, jobs-1)
		if !perm {
			continue
		}
		st := out.status
		v.check(st.Terminal() == jobs && st.Failed == 0 && st.Jobs == jobs,
			"iteration %d: after restart %d jobs, %d done, %d failed, %d cancelled; want %d terminal, none failed",
			n, st.Jobs, st.Done, st.Failed, st.Cancelled, jobs)
		v.check(out.sameAfterRestart, "iteration %d: trace or counts CSV changed across the dispatcher restart", n)

		rows, err := byIndex(out.countsCSV, out.seqOf)
		v.check(err == nil, "iteration %d: %v", n, err)
		if err != nil {
			continue
		}
		var cancelled []bool
		if c.mixed {
			// Which cancels beat the worker is a race, so the cancelled set
			// is taken from the output and checked for plausibility.
			cancelled = make([]bool, jobs)
			count := 0
			for i, r := range rows {
				if r[4] == "cancelled" {
					cancelled[out.seqOf[i]] = true
					count++
					v.check(cancelSent(i), "spec %d is cancelled but no cancel was sent for it", i)
				}
			}
			v.check(count == st.Cancelled, "counts CSV has %d cancelled rows, status says %d", count, st.Cancelled)
		} else {
			v.storedSize("wal_bytes", strconv.FormatInt(out.walBytes, 10))
			v.storedSize("wal_bytes_per_job", fmt.Sprintf("%.2f", float64(out.walBytes)/float64(jobs)))
			v.fact(e.golden, "counts_by_index_sha256", hashRows(rows))
		}

		want, err := referenceTrace(e.seed, c.days, ordered, cancelled)
		if err != nil {
			return nil, err
		}
		v.check(bytes.Equal(out.traceCSV, want), "iteration %d: trace CSV differs from the in-process session replay (sha256 %s, want %s)",
			n, sha(out.traceCSV), sha(want))

		if e.golden != nil && !c.mixed {
			continue // the recorded hash stood in for the counts reference
		}
		if ref == nil {
			if ref, err = referenceCounts(out.plans); err != nil {
				return nil, err
			}
		}
		bad := 0
		for i, r := range rows {
			if r[4] == "cancelled" {
				continue
			}
			if !slices.Equal(r, ref[i]) {
				bad++
			}
		}
		v.check(bad == 0, "iteration %d: %d counts rows differ from wire.RunLocal", n, bad)
	}
	return v, nil
}

func daemonWorkload(name, why string, threads int, c daemonCfg) *workloadDef {
	loop := "closed loop, 2 connections, then drain"
	if c.mixed {
		loop = "closed loop, 1 connection, every 10th cancelled, every 5th resubmitted, worker draining meanwhile"
	}
	return &workloadDef{
		name: name, why: why, threads: threads, minIters: 2, needsBinaries: true,
		sizes: map[string]any{
			"specs": c.jobs, "window_days": c.days, "wide_exec_plan": c.wide, "workers": c.workers,
			"submit": loop, "worker_flags": fmt.Sprintf("-units %d -workers %d -poll %s", c.pullSize(), workerSim, workerPoll),
			"status_poll_ms": statusPoll.Milliseconds(), "timed_restarts": max(c.readBack, 1),
		},
		iterate: c.iterate,
		verify:  c.verify,
		shape: func(e *env) probeShape {
			c := c.at(e)
			units := 0
			if c.wide {
				units = e.n(16, 4)
			}
			return probeShape{
				units: units,
				gen:   c.gen(e.seed),
				plans: func(jobs int) []wire.Spec { return c.plans(e.seed, jobs) },
				days:  c.days,
			}
		},
	}
}
