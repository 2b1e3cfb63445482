package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/compile"
	"qcloud/internal/dispatch"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
	"qcloud/internal/qsim"
	"qcloud/internal/tenant"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// probeJobs caps the spec streams the per-layer probes run on.
const probeJobs = 1000

// probeShape is the input shape of one workload at probe scale: the
// probes call the same exported functions for every workload, on that
// workload's kind of input, so a number that depends on the input
// (BatchRun time per unit, journal overhead) differs between workloads
// and one that does not (frame overhead) repeats.
type probeShape struct {
	// gen generates the JobSpec stream the workload, cloud, trace and
	// analysis probes use.
	gen workload.Config
	// plans generates about jobs dispatcher submissions of the
	// workload's exec shape.
	plans func(jobs int) []wire.Spec
	days  float64
	// units is how many of the plans the worker and qsim probes execute
	// (0 = all of them); execute's wide circuits keep it small.
	units int
	// tenants is the broker scenario; zero means a small default one.
	tenants workload.TenantConfig
}

// prober carries what the probes share.
type prober struct {
	e   *env
	tr  *tracer
	out map[string]float64
}

// timed runs f under a span of the given layer and returns how long it
// took.
func (p *prober) timed(layer, name string, f func() error) (time.Duration, error) {
	sp := p.tr.begin(-1, layer, name, -1)
	t := time.Now()
	err := f()
	d := time.Since(t)
	p.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	return d, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// mallocs runs f and returns the heap allocations and bytes it made.
func mallocs(f func() error) (allocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// runProbes measures every per-layer metric but the phase ones.
func runProbes(s probeShape, e *env, tr *tracer, out map[string]float64) error {
	p := &prober{e: e, tr: tr, out: out}
	specs, err := p.workload(s)
	if err != nil {
		return err
	}
	plans := s.plans(min(len(specs), probeJobs))
	records, err := p.wire(plans, e.seed)
	if err != nil {
		return err
	}
	if err := p.journal(records); err != nil {
		return err
	}
	if err := p.queue(plans); err != nil {
		return err
	}
	units := plans
	if s.units > 0 && len(units) > s.units {
		units = units[:s.units]
	}
	results, err := p.dispatcher(plans, units, s.days)
	if err != nil {
		return err
	}
	if err := p.qsim(); err != nil {
		return err
	}
	tr0, err := p.cloud(specs, s.gen, results)
	if err != nil {
		return err
	}
	if err := p.tenant(s.tenants); err != nil {
		return err
	}
	if err := p.traceCodec(tr0); err != nil {
		return err
	}
	return p.analysis(tr0)
}

func (p *prober) workload(s probeShape) ([]*cloud.JobSpec, error) {
	var specs []*cloud.JobSpec
	d, _ := p.timed("workload", "Generate", func() error {
		specs = workload.Generate(s.gen)
		return nil
	})
	p.out["workload.generate_ns_per_job"] = perOp(d, len(specs))

	tc := p.tenantConfig(s.tenants)
	sc, err := workload.FindTenantScenario("skewed")
	if err != nil {
		return nil, err
	}
	var subs []tenant.Submission
	d, _ = p.timed("workload", "TenantScenario.Build", func() error {
		_, subs = sc.Build(tc)
		return nil
	})
	p.out["workload.tenant_build_ns_per_sub"] = perOp(d, len(subs))
	return specs, nil
}

func (p *prober) tenantConfig(tc workload.TenantConfig) workload.TenantConfig {
	if tc.TotalJobs == 0 {
		start, end := p.e.window(14)
		tc = workload.TenantConfig{Seed: p.e.seed, Start: start, End: end, Tenants: 16, TotalJobs: p.e.n(2000, 100)}
	}
	return tc
}

func (p *prober) wire(plans []wire.Spec, seed int64) (records [][]byte, err error) {
	n := len(plans)
	specs := make([]*cloud.JobSpec, n)
	for i := range plans {
		specs[i] = plans[i].JobSpec()
	}
	d, _ := p.timed("dispatch/wire", "Plan", func() error {
		for i, js := range specs {
			_ = wire.Plan(js, minimalExec, seed, i)
		}
		return nil
	})
	p.out["wire.plan_ns"] = perOp(d, n)

	records = make([][]byte, n)
	d, err = p.timed("dispatch/wire", "EncodeRecord", func() error {
		for i := range plans {
			var err error
			if records[i], err = wire.EncodeRecord(wire.RecSubmit, wire.SubmitRec{Seq: int64(i), Key: fmt.Sprintf("job/%d", i), Spec: plans[i]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["wire.encode_record_ns"] = perOp(d, n)

	d, err = p.timed("dispatch/wire", "DecodeRecord", func() error {
		for _, raw := range records {
			env, err := wire.DecodeRecord(raw)
			if err != nil {
				return err
			}
			var sr wire.SubmitRec
			if err := json.Unmarshal(env.Data, &sr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["wire.decode_record_ns"] = perOp(d, n)

	total := 0
	for i := range plans {
		raw, err := json.Marshal(wire.SubmitRequest{V: wire.Version, Key: fmt.Sprintf("job/%d", i), Spec: plans[i]})
		if err != nil {
			return nil, err
		}
		total += len(raw)
	}
	p.out["wire.submit_json_bytes"] = float64(total) / float64(n)
	return records, nil
}

func (p *prober) journal(records [][]byte) error {
	payload := 0
	for _, r := range records {
		payload += len(r)
	}
	write := func(name string, flushEvery int) (dir string, d time.Duration, w *journal.Writer, err error) {
		if dir, err = p.e.mkdir("probe-journal-*"); err != nil {
			return
		}
		if w, err = journal.Create(dir, journal.Options{}); err != nil {
			return
		}
		d, err = p.timed("journal", name, func() error {
			for i, r := range records {
				if err := w.Append(r); err != nil {
					return err
				}
				if (i+1)%flushEvery == 0 {
					if err := w.Flush(); err != nil {
						return err
					}
				}
			}
			return w.Flush()
		})
		return
	}
	dir, d, w, err := write("Append+Flush", 1)
	defer os.RemoveAll(dir)
	if err != nil {
		return err
	}
	p.out["journal.append_flush_ns_per_rec"] = perOp(d, len(records))
	p.out["journal.frame_overhead_bytes"] = float64(w.Bytes()-int64(payload)) / float64(len(records))
	if err := w.Close(); err != nil {
		return err
	}
	d, err = p.timed("journal", "ForEach", func() error {
		_, err := journal.ForEach(dir, func(int64, []byte) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	p.out["journal.foreach_ns_per_rec"] = perOp(d, len(records))

	dir2, d, w2, err := write("Append, Flush every 64", 64)
	defer os.RemoveAll(dir2)
	if err != nil {
		return err
	}
	p.out["journal.append_ns_per_rec"] = perOp(d, len(records))
	return w2.Close()
}

// queue calls the dispatcher's Queue directly at two depths.
func (p *prober) queue(plans []wire.Spec) error {
	small := map[string]int{"00": 1}
	for _, depth := range []struct {
		tag string
		n   int
	}{{"d1k", 1000}, {"d20k", 20000}} {
		dir, err := p.e.mkdir("probe-queue-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		q, err := dispatch.OpenQueue(dispatch.QueueConfig{Dir: dir, Seed: p.e.seed})
		if err != nil {
			return err
		}
		n := p.e.n(depth.n, 100)
		d, err := p.timed("dispatch", "Queue.Submit."+depth.tag, func() error {
			for i := 0; i < n; i++ {
				if _, _, err := q.Submit(fmt.Sprintf("k/%d", i), plans[i%len(plans)]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if depth.tag == "d20k" {
			p.out["queue.submit_ns"] = perOp(d, n)
		}

		const pulls = 100
		var units []wire.Unit
		d, err = p.timed("dispatch", "Queue.Pull."+depth.tag, func() error {
			for i := 0; i < pulls; i++ {
				us, err := q.Pull("w", workerUnits)
				if err != nil {
					return err
				}
				units = append(units, us...)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.out["queue.pull_ns_per_unit."+depth.tag] = perOp(d, len(units))

		if depth.tag == "d1k" {
			held := []int64{units[0].Seq, units[1].Seq, units[2].Seq, units[3].Seq}
			d, _ = p.timed("dispatch", "Queue.Heartbeat", func() error {
				for i := 0; i < 200; i++ {
					q.Heartbeat("w", held)
				}
				return nil
			})
			p.out["queue.heartbeat_ns"] = perOp(d, 200)
		}

		d, err = p.timed("dispatch", "Queue.Result."+depth.tag, func() error {
			for _, u := range units {
				if _, _, err := q.Result("w", u.Seq, u.Attempt, small, ""); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.out["queue.result_ns."+depth.tag] = perOp(d, len(units))

		if depth.tag == "d1k" {
			dups := min(n, 500)
			d, err = p.timed("dispatch", "Queue.Submit.dup", func() error {
				for i := 0; i < dups; i++ {
					if _, dup, err := q.Submit(fmt.Sprintf("k/%d", i), plans[i%len(plans)]); err != nil || !dup {
						return fmt.Errorf("resubmitted key not reported as a duplicate: %v", err)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.out["queue.submit_dup_ns"] = perOp(d, dups)
			cancels := 0
			d, err = p.timed("dispatch", "Queue.Cancel", func() error {
				for i := n - 1; i >= n/2 && cancels < 200; i-- { // the tail is still queued
					if _, _, err := q.Cancel(fmt.Sprintf("k/%d", i), 0); err != nil {
						return err
					}
					cancels++
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.out["queue.cancel_ns"] = perOp(d, cancels)
			if err := q.Close(); err != nil {
				return err
			}
			continue
		}

		d, _ = p.timed("dispatch", "Queue.Stats.d20k", func() error {
			for i := 0; i < 50; i++ {
				q.Stats()
			}
			return nil
		})
		p.out["queue.stats_ns.d20k"] = perOp(d, 50)
		if err := q.Close(); err != nil {
			return err
		}
		sub, err := walBytes(filepath.Join(dir, "submits"))
		if err != nil {
			return err
		}
		res, err := walBytes(filepath.Join(dir, "results"))
		if err != nil {
			return err
		}
		p.out["queue.wal_bytes_per_submit"] = float64(sub) / float64(n)
		p.out["queue.wal_bytes_per_result"] = float64(res) / float64(len(units))
		d, err = p.timed("dispatch", "OpenQueue.replay", func() error {
			q, err := dispatch.OpenQueue(dispatch.QueueConfig{Dir: dir, Seed: p.e.seed})
			if err != nil {
				return err
			}
			return q.Close()
		})
		if err != nil {
			return err
		}
		p.out["queue.open_replay_ns_per_rec"] = perOp(d, n+len(units))
	}
	return nil
}

// postJSON is one raw round trip to a dispatcher endpoint the Client
// type has no method for.
func postJSON(hc *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	res, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, res.StatusCode, data)
	}
	return json.Unmarshal(data, resp)
}

// dispatcher measures the HTTP surface, the Dispatcher's result planes
// and one Worker, all in process on a loopback listener. It returns
// the units' results for the ResultSet probe.
func (p *prober) dispatcher(plans, units []wire.Spec, days float64) ([]cloud.JobResult, error) {
	fresh := func() (*dispatch.Dispatcher, *proc, func(), error) {
		dir, err := p.e.mkdir("probe-disp-*")
		if err != nil {
			return nil, nil, nil, err
		}
		d, pr, err := startInproc(dir, p.e.seed, days)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, err
		}
		return d, pr, func() { _, _ = pr.stop(); os.RemoveAll(dir) }, nil
	}

	// Closed-loop submit round trips, one connection.
	_, pr, done, err := fresh()
	if err != nil {
		return nil, err
	}
	defer done()
	cl := oneConn(pr.url)
	n := p.e.n(12000, 200)
	rtt := make([]float64, n)
	_, err = p.timed("dispatch", "http.submit x n", func() error {
		for i := 0; i < n; i++ {
			t := time.Now()
			if _, err := cl.Submit(fmt.Sprintf("k/%d", i), plans[i%len(plans)]); err != nil {
				return err
			}
			rtt[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["http.submit_rtt_p50_us"] = quantile(rtt, 0.5)
	p.out["http.submit_rtt_p99_us"] = quantile(rtt, 0.99)
	p.out["http.submit_rtt_p999_us"] = quantile(rtt, 0.999)
	done()

	// The handler without the network: JSON + routing self time.
	d, _, done, err := fresh()
	if err != nil {
		return nil, err
	}
	defer done()
	h := d.Handler()
	m := min(n, 2000)
	bodies := make([][]byte, m)
	for i := range bodies {
		bodies[i], _ = json.Marshal(wire.SubmitRequest{V: wire.Version, Key: fmt.Sprintf("k/%d", i), Spec: plans[i%len(plans)]})
	}
	dur, err := p.timed("dispatch", "Handler.ServeHTTP submit", func() error {
		for _, b := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("submit handler answered %d", rec.Code)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["http.submit_handler_ns"] = perOp(dur, m) - p.out["queue.submit_ns"]
	done()

	// Pull and result round trips, then one worker drains the rest.
	d, pr, done, err = fresh()
	if err != nil {
		return nil, err
	}
	defer done()
	cl = oneConn(pr.url)
	for i := range units {
		if _, err := cl.Submit(fmt.Sprintf("k/%d", i), units[i]); err != nil {
			return nil, err
		}
	}
	byHand := min(len(units)/4, 50)
	var pullRTT, resultRTT []float64
	results := make([]cloud.JobResult, 0, len(units))
	for i := 0; i < byHand; i++ {
		var pull wire.PullResponse
		t := time.Now()
		if err := postJSON(cl.HTTP, pr.url+"/v1/pull", wire.PullRequest{V: wire.Version, Worker: "probe", Max: 1}, &pull); err != nil {
			return nil, err
		}
		pullRTT = append(pullRTT, float64(time.Since(t).Nanoseconds())/1e3)
		if len(pull.Units) != 1 {
			return nil, fmt.Errorf("probe pull returned %d units", len(pull.Units))
		}
		u := pull.Units[0]
		counts, err := runUnit(&u.Spec)
		if err != nil {
			return nil, err
		}
		var rr wire.ResultResponse
		t = time.Now()
		if err := postJSON(cl.HTTP, pr.url+"/v1/result", wire.ResultRequest{V: wire.Version, Worker: "probe", Seq: u.Seq, Attempt: u.Attempt, Counts: wire.CountsToPairs(counts)}, &rr); err != nil {
			return nil, err
		}
		resultRTT = append(resultRTT, float64(time.Since(t).Nanoseconds())/1e3)
	}
	p.out["http.pull_rtt_us"] = median(pullRTT)
	p.out["http.result_rtt_us"] = median(resultRTT)

	if err := cl.Seal(); err != nil {
		return nil, err
	}
	// The same units through BatchRun alone, grouped as the worker
	// groups them: what the drain would cost with no queue, no HTTP. It
	// runs before and after the drain and the two are averaged, so that
	// a host that changed speed in between does not decide the share.
	rest := units[byHand:]
	var build, batch, merge time.Duration
	alone := func() error {
		results = results[:0]
		for lo := 0; lo < len(rest); lo += workerUnits {
			group := rest[lo:min(lo+workerUnits, len(rest))]
			var jobs []qsim.BatchJob
			spans := make([]int, 0, len(group)+1)
			t := time.Now()
			for i := range group {
				js, err := wire.BuildBatch(&group[i])
				if err != nil {
					return err
				}
				spans = append(spans, len(jobs))
				jobs = append(jobs, js...)
			}
			spans = append(spans, len(jobs))
			build += time.Since(t)
			t = time.Now()
			res := qsim.BatchRun(jobs, qsim.Parallelism{Workers: workerSim})
			batch += time.Since(t)
			t = time.Now()
			for i := range group {
				counts, err := wire.MergeBatch(res[spans[i]:spans[i+1]])
				if err != nil {
					return err
				}
				results = append(results, cloud.JobResult{Seq: int64(byHand + lo + i), Circuit: group[i].ExecLabel(), Batch: group[i].ExecBatch, Shots: group[i].ExecShots, Counts: counts})
			}
			merge += time.Since(t)
		}
		return nil
	}
	if _, err := p.timed("qsim", "BatchRun alone (before the drain)", alone); err != nil {
		return nil, err
	}
	drain, err := p.timed("dispatch", "Worker drain", func() error {
		w, err := startInprocWorker(pr.url, "w0", workerUnits)
		if err != nil {
			return err
		}
		defer w.stop()
		return awaitDrained(cl, len(units))
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.timed("qsim", "BatchRun alone (after the drain)", alone); err != nil {
		return nil, err
	}
	p.out["worker.units_per_s"] = float64(len(rest)) / drain.Seconds()
	p.out["wire.build_batch_ns_per_unit"] = perOp(build, 2*len(rest))
	p.out["qsim.batchrun_ns_per_unit"] = perOp(batch, 2*len(rest))
	p.out["wire.merge_batch_ns_per_unit"] = perOp(merge, 2*len(rest))
	p.out["worker.overhead_share"] = 1 - batch.Seconds()/2/drain.Seconds()

	dur, err = p.timed("dispatch", "Dispatcher.TraceCSV", func() error { _, err := d.TraceCSV(); return err })
	if err != nil {
		return nil, err
	}
	p.out["dispatcher.trace_replay_s"] = dur.Seconds()
	dur, err = p.timed("dispatch", "Dispatcher.CountsCSV", func() error { _, err := d.CountsCSV(false); return err })
	if err != nil {
		return nil, err
	}
	p.out["dispatcher.counts_csv_s"] = dur.Seconds()
	done()

	// The open loop of mixed at probe scale, one worker draining.
	_, pr, done, err = fresh()
	if err != nil {
		return nil, err
	}
	defer done()
	w, err := startInprocWorker(pr.url, "w0", workerUnits)
	if err != nil {
		return nil, err
	}
	defer w.stop()
	sp := p.tr.begin(-1, "dispatch", "open loop", -1)
	late, lagMax, failed := openLoop(oneConn(pr.url), units)
	p.tr.end(sp)
	if failed > 0 {
		return nil, fmt.Errorf("probe open loop: %d operations failed", failed)
	}
	within := 0
	for _, l := range late {
		if l <= openLoopLimitMS {
			within++
		}
	}
	p.out["http.mixed_late_p99_ms"] = quantile(late, 0.99)
	p.out["http.mixed_within_limit_share"] = float64(within) / float64(len(late))
	p.out["http.generator_lag_max_ms"] = lagMax
	return results, nil
}

// The open loop sends the mixed operation stream at a fixed rate, about
// half of what one connection carries on a 2-vCPU host, and counts an
// ack later than the limit after its due time as a miss.
const (
	openLoopRate    = 1000 // operations per second
	openLoopLimitMS = 5.0
)

// openLoop sends mixed's operation stream on a schedule, whatever the
// dispatcher does, on one connection, and times each operation from
// when it was due: a stall delays the operations due during it, and
// that wait counts. It returns every operation's ack-minus-due time and
// the latest send relative to its due time, both in milliseconds.
func openLoop(cl *dispatch.Client, plans []wire.Spec) (late []float64, lagMaxMS float64, failed int) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	t0 := time.Now()
	k := 0
	_, failed = mixedOps(cl, plans, make([]int64, len(plans)), nil, -1, func(send func()) {
		due := t0.Add(time.Duration(k) * time.Second / openLoopRate)
		k++
		// Sleep most of the wait, then yield: a sleeping generator wakes
		// late by a timer's slack, a spinning one would hold a CPU the
		// dispatcher needs.
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			if wait > 200*time.Microsecond {
				time.Sleep(wait - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		lagMaxMS = max(lagMaxMS, ms(time.Since(due)))
		send()
		late = append(late, ms(time.Since(due)))
	})
	return late, lagMaxMS, failed
}

// runUnit executes one unit the way a worker does.
func runUnit(s *wire.Spec) (map[string]int, error) {
	jobs, err := wire.BuildBatch(s)
	if err != nil {
		return nil, err
	}
	return wire.MergeBatch(qsim.BatchRun(jobs, qsim.Parallelism{Workers: workerSim}))
}

func (p *prober) qsim() error {
	serial := qsim.Parallelism{Workers: 1}
	exact := gens.QFTBench(16)
	_, _, sweeps, err := qsim.KernelCounts(exact, nil)
	if err != nil {
		return err
	}
	d, err := p.timed("qsim", "RunOpts exact 16q", func() error {
		_, err := qsim.RunOpts(exact, 1, nil, rand.New(rand.NewSource(1)), serial)
		return err
	})
	if err != nil {
		return err
	}
	p.out["qsim.exact_amp_updates_per_s"] = float64(sweeps) * float64(int(1)<<16) / d.Seconds()

	noisy := gens.QFTBench(10)
	if _, _, sweeps, err = qsim.KernelCounts(noisy, nil); err != nil {
		return err
	}
	p.out["qsim.kernel_sweeps_per_circuit"] = float64(sweeps)
	const shots = 128
	noise := qsim.UniformNoise(0.001, 0.01, 0.02)
	var allocs uint64
	d, err = p.timed("qsim", "RunOpts trajectories 10q", func() error {
		allocs, _, err = mallocs(func() error {
			_, err := qsim.RunOpts(noisy, shots, noise, rand.New(rand.NewSource(2)), serial)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	p.out["qsim.trajectory_shots_per_s"] = shots / d.Seconds()
	p.out["qsim.allocs_per_shot"] = float64(allocs) / shots
	return nil
}

// cloud measures the session layer on the probe stream and returns the
// trace for the codec and analysis probes.
func (p *prober) cloud(specs []*cloud.JobSpec, gen workload.Config, results []cloud.JobResult) (*trace.Trace, error) {
	cfg := cloud.Config{Seed: p.e.seed, Start: gen.Start, End: gen.End, Workers: 1}
	n := len(specs)
	var tr0 *trace.Trace
	var allocs, allocBytes uint64
	d, err := p.timed("cloud", "Simulate serial", func() (err error) {
		allocs, allocBytes, err = mallocs(func() (err error) {
			tr0, err = cloud.Simulate(cfg, specs)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	sim := simJobs(tr0)
	p.out["cloud.simulate_s"] = d.Seconds()
	p.out["cloud.ns_per_sim_job"] = perOp(d, sim)
	p.out["cloud.allocs_per_sim_job"] = float64(allocs) / float64(sim)
	p.out["cloud.bytes_per_sim_job"] = float64(allocBytes) / float64(sim)

	d, err = p.timed("cloud", "Session.Submit", func() error {
		s, err := cloud.Open(cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		for _, sp := range specs {
			if _, err := s.Submit(sp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["cloud.submit_ns"] = perOp(d, n)

	ordered := append([]*cloud.JobSpec(nil), specs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].SubmitTime.Before(ordered[j].SubmitTime) })
	d, err = p.timed("cloud", "online AdvanceTo+QueueState+Submit", func() error {
		s, err := cloud.Open(cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		for _, sp := range ordered {
			s.AdvanceTo(sp.SubmitTime)
			if _, err := s.QueueState(sp.Machine); err != nil {
				return err
			}
			if _, err := s.Submit(sp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out["cloud.online_ns_per_job"] = perOp(d, n)

	// Journaled against in-memory, both at the workloads' fan-out.
	cfg.Workers = simWorkers
	session := func(cfg cloud.Config, finish func(*cloud.Session) error) error {
		s, err := cloud.Open(cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		for _, sp := range specs {
			if _, err := s.Submit(sp); err != nil {
				return err
			}
		}
		s.AdvanceTo(cfg.End)
		return finish(s)
	}
	// Three alternating rounds, medians of each: a single pair measured
	// at different moments of a noisy host gives ratios below 1.
	var mem, jrn []float64
	var jcfg cloud.Config
	var st cloud.JournalStats
	held := 0
	for round := 0; round < 3; round++ {
		d, err := p.timed("cloud", "session in memory", func() error {
			return session(cfg, func(s *cloud.Session) error { _, err := s.Run(); return err })
		})
		if err != nil {
			return nil, err
		}
		mem = append(mem, d.Seconds())
		dir, err := p.e.mkdir("probe-cloud-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		jcfg = cfg
		jcfg.Journal = &cloud.JournalConfig{Dir: dir, CheckpointEvery: cfg.End.Sub(cfg.Start) / journalCheckpoints}
		d, err = p.timed("cloud", "session journaled", func() error {
			return session(jcfg, func(s *cloud.Session) (err error) {
				held = s.HeldTraceEntries()
				st, err = s.DrainJournal()
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		jrn = append(jrn, d.Seconds())
	}
	p.out["cloud.journal_overhead_ratio"] = median(jrn) / median(mem)
	p.out["cloud.journal_records"] = float64(st.Records)
	p.out["cloud.journal_bytes_per_job"] = float64(st.Bytes) / float64(max(st.JobRecords, 1))
	p.out["cloud.held_trace_entries"] = float64(held)
	d, err = p.timed("cloud", "ReadJournalTrace", func() error { _, err := cloud.ReadJournalTrace(jcfg); return err })
	if err != nil {
		return nil, err
	}
	p.out["cloud.read_journal_trace_s"] = d.Seconds()
	d, err = p.timed("cloud", "Recover", func() error {
		s, err := cloud.Recover(jcfg)
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return nil, err
	}
	p.out["cloud.recover_s"] = d.Seconds()

	// Checkpoint and restore at mid-window.
	var ckpt bytes.Buffer
	err = session(cloud.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.Start.Add(cfg.End.Sub(cfg.Start) / 2), Workers: simWorkers},
		func(s *cloud.Session) error {
			d, err := p.timed("cloud", "Checkpoint+WriteCheckpoint", func() error {
				ck, err := s.Checkpoint()
				if err != nil {
					return err
				}
				return cloud.WriteCheckpoint(&ckpt, ck)
			})
			p.out["cloud.checkpoint_s"] = d.Seconds()
			return err
		})
	if err != nil {
		return nil, err
	}
	p.out["cloud.checkpoint_bytes"] = float64(ckpt.Len())
	d, err = p.timed("cloud", "ReadCheckpoint+Restore", func() error {
		ck, err := cloud.ReadCheckpoint(&ckpt)
		if err != nil {
			return err
		}
		s, err := cloud.Restore(cloud.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.Start.Add(cfg.End.Sub(cfg.Start) / 2), Workers: simWorkers}, ck)
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return nil, err
	}
	p.out["cloud.restore_s"] = d.Seconds()

	rs := cloud.NewResultSet()
	d, _ = p.timed("cloud", "ResultSet.Ingest", func() error {
		for _, r := range results {
			rs.Ingest(r)
		}
		return nil
	})
	p.out["cloud.resultset_ingest_ns"] = perOp(d, len(results))
	d, err = p.timed("cloud", "ResultSet.WriteCSV", func() error { return rs.WriteCSV(io.Discard) })
	if err != nil {
		return nil, err
	}
	p.out["cloud.resultset_writecsv_s"] = d.Seconds()
	return tr0, nil
}

func (p *prober) tenant(tc workload.TenantConfig) error {
	tc = p.tenantConfig(tc)
	sc, err := workload.FindTenantScenario("skewed")
	if err != nil {
		return err
	}
	ccfg := cloud.Config{Seed: p.e.seed, Start: tc.Start, End: tc.End, Workers: simWorkers}
	tcfg, subs := sc.Build(tc)
	tcfg.Preemption = true
	var b *tenant.Broker
	var allocs uint64
	run, err := p.timed("tenant", "Open+Play+Run", func() (err error) {
		allocs, _, err = mallocs(func() (err error) {
			if b, err = tenant.Open(ccfg, tcfg); err != nil {
				return err
			}
			if err := b.Play(subs); err != nil {
				return err
			}
			_, err = b.Run()
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	defer b.Close()
	specs := make([]*cloud.JobSpec, len(subs))
	for i, sub := range subs {
		s := *sub.Spec
		s.User = "tenant:" + sub.Queue
		specs[i] = &s
	}
	direct, err := p.timed("cloud", "Simulate (tenant stream, no broker)", func() error {
		_, err := cloud.Simulate(ccfg, specs)
		return err
	})
	if err != nil {
		return err
	}
	m := b.Metrics()
	p.out["tenant.run_s"] = run.Seconds()
	p.out["tenant.direct_s"] = direct.Seconds()
	p.out["tenant.overhead_ratio"] = run.Seconds() / direct.Seconds()
	p.out["tenant.allocs_per_submission"] = float64(allocs) / float64(len(subs))
	p.out["tenant.preemptions"] = float64(m.Preemptions)
	p.out["tenant.jain"] = m.JainIndex
	p.out["tenant.max_dev"] = m.MaxDeviation
	return nil
}

func (p *prober) traceCodec(tr0 *trace.Trace) error {
	n := len(tr0.Jobs)
	var csv bytes.Buffer
	d, err := p.timed("trace", "WriteCSV", func() error { return trace.WriteCSV(&csv, tr0.Jobs) })
	if err != nil {
		return err
	}
	p.out["trace.writecsv_ns_per_job"] = perOp(d, n)
	d, err = p.timed("trace", "ReadCSV", func() error { _, err := trace.ReadCSV(&csv); return err })
	if err != nil {
		return err
	}
	p.out["trace.readcsv_ns_per_job"] = perOp(d, n)
	frames := make([][]byte, n)
	d, _ = p.timed("trace", "AppendJob", func() error {
		for i, j := range tr0.Jobs {
			frames[i] = trace.AppendJob(nil, j)
		}
		return nil
	})
	p.out["trace.appendjob_ns"] = perOp(d, n)
	d, err = p.timed("trace", "DecodeJob", func() error {
		for _, f := range frames {
			if _, err := trace.DecodeJob(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["trace.decodejob_ns"] = perOp(d, n)
	return nil
}

func (p *prober) analysis(tr0 *trace.Trace) error {
	d, _ := p.timed("analysis", "trace figures", func() error {
		analysis.CumulativeTrials(tr0)
		analysis.StatusBreakdown(tr0)
		analysis.QueueShapeOf(tr0)
		analysis.QueueExecRatios(tr0)
		analysis.UtilizationByMachine(tr0)
		analysis.QueuingByMachine(tr0)
		analysis.ByBatchSize(tr0, nil)
		analysis.CalibrationCrossovers(tr0)
		analysis.RuntimeByMachine(tr0)
		analysis.RuntimeVsBatch(tr0)
		return nil
	})
	p.out["analysis.trace_figs_s"] = d.Seconds()
	d, _ = p.timed("analysis", "PredictionCorrelations", func() error {
		analysis.PredictionCorrelations(tr0, 80, p.e.seed)
		return nil
	})
	p.out["analysis.prediction_s"] = d.Seconds()

	byName := backend.FleetByName()
	var machines []*backend.Machine
	for _, n := range []string{"ibmq_casablanca", "ibmq_toronto", "ibmq_guadalupe", "ibmq_rome", "ibmq_manhattan"} {
		machines = append(machines, byName[n])
	}
	at := time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
	d, err := p.timed("analysis", "FidelityVsCXMetrics", func() error {
		_, err := analysis.FidelityVsCXMetrics(machines, 4, 200, at, p.e.seed)
		return err
	})
	if err != nil {
		return err
	}
	p.out["analysis.fig7_s"] = d.Seconds()

	melbourne := byName["ibmq_16_melbourne"]
	const reps = 10
	var res *compile.Result
	d, err = p.timed("compile", "Compile QFT(8)", func() (err error) {
		for i := 0; i < reps; i++ {
			if res, err = compile.Compile(gens.QFT(8), melbourne, melbourne.CalibrationAt(at), compile.Options{Seed: p.e.seed}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["compile.qft_ns_per_circuit"] = perOp(d, reps)
	p.out["compile.swaps_added"] = float64(res.SwapsInserted)
	return nil
}
