package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/tenant"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// simWorkers is the per-machine fan-out the in-process workloads and
// qcloud-analyze run with; outputs are identical at any value.
const simWorkers = 2

// simJobs is the exact count of jobs a simulation processed: the study
// jobs in the trace plus every machine's background jobs.
func simJobs(tr *trace.Trace) int {
	n := len(tr.Jobs)
	for _, m := range tr.Machines {
		n += int(m.BackgroundJobs)
	}
	return n
}

func traceCSVOf(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := trace.WriteCSV(&buf, tr.Jobs)
	return buf.Bytes(), err
}

// plansOf gives the in-process workloads' spec streams to the
// dispatcher-side probes, with the minimal exec plan.
func plansOf(specs []*cloud.JobSpec, seed int64) []wire.Spec {
	plans := make([]wire.Spec, len(specs))
	for i, js := range specs {
		plans[i] = wire.Plan(js, minimalExec, seed, i)
	}
	return plans
}

// --- study ---------------------------------------------------------------

type studyOut struct {
	jobs   int
	stdout []byte
}

// figure ids qcloud-analyze prints with -fig all.
var studyFigures = strings.Fields("2a 2b 3 4 5 6 7 8 9 10 11 12a 12b 13 14 15 16")

func studyWorkload(why string, jobs int) *workloadDef {
	gen := func(e *env) workload.Config { return workload.Config{Seed: e.seed, TotalJobs: e.n(jobs, 50)} }
	return &workloadDef{
		name: "study", why: why, threads: 1, minIters: 2, needsBinaries: true,
		sizes: map[string]any{"jobs": jobs, "window": "the two-year study window, full fleet", "figures": "all", "analyze_workers": simWorkers},
		iterate: func(e *env, tr *tracer) (*iteration, error) {
			it := &iteration{ops: 1}
			// The driver generates the same stream only to know the exact
			// job count; the program under test generates its own. A run
			// makes two passes, so each sets up many times and keeps the
			// median: two samples of 15 ms would not hold setup_s steady.
			cfg := gen(e)
			n := 0
			var setups []float64
			for i := 0; i < 15; i++ {
				t0 := time.Now()
				sp := tr.begin(rootSpan, "workload", "generate", -1)
				n = len(workload.Generate(cfg))
				tr.end(sp)
				setups = append(setups, time.Since(t0).Seconds())
			}
			it.setup = time.Duration(median(setups) * float64(time.Second))

			t1 := time.Now()
			sp := tr.begin(rootSpan, "cmd", "qcloud-analyze", -1)
			stdout, u, err := e.host.analyze(e.seed, cfg.TotalJobs, simWorkers)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("qcloud-analyze: %w", err)
			}
			it.phases[phaseProcess] = time.Since(t1)
			it.jobs, it.used = n, u
			it.out = &studyOut{jobs: n, stdout: stdout}
			return it, nil
		},
		verify: func(e *env, its []*iteration) (*verdict, error) {
			v := &verdict{}
			for n, it := range its {
				out := it.out.(*studyOut)
				// Fig 5 prints wall-clock compile times.
				stable := dropBlock(out.stdout, "== Fig 5 ")
				v.fact(e.golden, "jobs", strconv.Itoa(out.jobs))
				v.fact(e.golden, "stdout_sha256", sha(stable))
				for _, id := range studyFigures {
					v.check(bytes.Contains(out.stdout, []byte(fmt.Sprintf("== Fig %-3s ", id))), "iteration %d: figure %s missing from stdout", n, id)
				}
				// The program's trace must hold the jobs the seed generates.
				v.check(bytes.Contains(stable, []byte(fmt.Sprintf("%% of %d jobs\n", out.jobs))),
					"iteration %d: Fig 12a does not report %d jobs", n, out.jobs)
			}
			if e.golden != nil {
				return v, nil
			}
			// Reference: the same study run serially; the output is
			// specified to be identical at any worker count.
			serial, _, err := e.host.analyze(e.seed, gen(e).TotalJobs, 1)
			if err != nil {
				return nil, fmt.Errorf("qcloud-analyze (serial reference): %w", err)
			}
			v.check(v.facts["stdout_sha256"] == sha(dropBlock(serial, "== Fig 5 ")), "stdout differs from the serial reference run")
			return v, nil
		},
		shape: func(e *env) probeShape {
			// Probe scale: the study generator over the window's last 60
			// days, where demand is densest.
			cfg := gen(e)
			cfg.TotalJobs = min(cfg.TotalJobs, probeJobs)
			cfg.End = backend.StudyEnd
			cfg.Start = cfg.End.Add(-time.Duration(e.days(60) * 24 * float64(time.Hour)))
			return specShape(e.seed, cfg)
		},
	}
}

// dropBlock removes the block of lines from the one starting with
// prefix up to (not including) the next line starting with "== Fig".
// Fig 5 prints wall-clock compile times, which no reference can match.
func dropBlock(out []byte, prefix string) []byte {
	var kept [][]byte
	skipping := false
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(prefix)) {
			skipping = true
		} else if skipping && bytes.HasPrefix(line, []byte("== Fig")) {
			skipping = false
		}
		if !skipping {
			kept = append(kept, line)
		}
	}
	return bytes.Join(kept, nil)
}

// specShape is the probe shape of a workload that is only a spec
// stream.
func specShape(seed int64, cfg workload.Config) probeShape {
	return probeShape{
		gen: cfg,
		plans: func(jobs int) []wire.Spec {
			c := cfg
			c.TotalJobs = jobs
			return plansOf(workload.Generate(c), seed)
		},
		days: cfg.End.Sub(cfg.Start).Hours() / 24,
	}
}

// --- journaled -----------------------------------------------------------

// journaledOut keeps hashes and counts only: a pass's specs and CSV
// would otherwise stay live and grow this process's peak RSS, which is
// the workload's own metric, with the number of passes.
type journaledOut struct {
	jobs      int
	traceSHA  string
	simJobs   int
	held      int
	stats     cloud.JournalStats
	recovered int64
	// problem is set when a later read of the same journal gave another
	// answer than the first.
	problem string
}

// journalCheckpoints is how many auto-checkpoint intervals a journaled
// window is cut into (the paper-scale run checkpoints quarterly over a
// year), so that Recover has a checkpoint to restore and a suffix to
// replay.
const journalCheckpoints = 3

// journaledWorkload writes a journaled session and reads it back.
// readBack > 0 makes the writing set-up and the timed path that many
// ReadJournalTrace calls and as many Recover calls on what it wrote.
func journaledWorkload(name, why string, jobs int, days float64, readBack int) *workloadDef {
	gen := func(e *env) workload.Config {
		start, end := e.window(days)
		return workload.Config{Seed: e.seed, TotalJobs: e.n(jobs, 200), Start: start, End: end}
	}
	memCfg := func(e *env) cloud.Config {
		g := gen(e)
		return cloud.Config{Seed: e.seed, Start: g.Start, End: g.End, Workers: simWorkers}
	}
	return &workloadDef{
		name: name, why: why, threads: 1, minIters: 2,
		sizes: map[string]any{"jobs": jobs, "window_days": days, "checkpoint_every_days": days / journalCheckpoints, "sim_workers": simWorkers,
			"timed_reads": max(readBack, 1)},
		iterate: func(e *env, tr *tracer) (it *iteration, err error) {
			it = &iteration{}
			out := &journaledOut{}
			it.out = out
			t0, cpu0 := time.Now(), selfCPU()
			g := gen(e)
			sp := tr.begin(rootSpan, "workload", "generate", -1)
			specs := workload.Generate(g)
			tr.end(sp)
			out.jobs = len(specs)
			dir, err := e.mkdir("journal-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			cfg := memCfg(e)
			cfg.Journal = &cloud.JournalConfig{Dir: dir, CheckpointEvery: g.End.Sub(g.Start) / journalCheckpoints}
			it.setup = time.Since(t0)

			phase := func(p int, layer, name string, f func() error) error {
				t := time.Now()
				sp := tr.begin(rootSpan, layer, name, -1)
				err := f()
				tr.end(sp)
				it.phases[p] += time.Since(t)
				it.ops++
				return err
			}
			var sess *cloud.Session
			err = phase(phaseAccept, "cloud", "Open+Submit", func() error {
				if sess, err = cloud.Open(cfg); err != nil {
					return err
				}
				for _, s := range specs {
					if _, err := sess.Submit(s); err != nil {
						sess.Close()
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// DrainJournal steps the fleet at the checkpoint cadence; an
			// AdvanceTo(end) first would collapse it to one checkpoint.
			err = phase(phaseProcess, "cloud", "DrainJournal", func() error {
				out.stats, err = sess.DrainJournal()
				out.held = sess.HeldTraceEntries()
				return err
			})
			if err != nil {
				return nil, err
			}
			if readBack > 0 {
				// All of that was set-up; only the reads below count.
				it.setup, it.phases, cpu0 = time.Since(t0), [numPhases]time.Duration{}, selfCPU()
			}
			reads := max(readBack, 1)
			for r := 0; r < reads; r++ {
				err = phase(phaseReadout, "cloud", "ReadJournalTrace", func() error {
					t, err := cloud.ReadJournalTrace(cfg)
					if err != nil {
						return err
					}
					csv, err := traceCSVOf(t)
					if r == 0 {
						out.simJobs, out.traceSHA = simJobs(t), sha(csv)
					} else if got := sha(csv); got != out.traceSHA {
						out.problem = fmt.Sprintf("read %d of the journal gave trace %s, the first gave %s", r, got, out.traceSHA)
					}
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			// Recover reopens the journal for writing, so it comes after the
			// reads; each call restores the newest checkpoint and replays the
			// submissions after it.
			for r := 0; r < reads; r++ {
				err = phase(phaseReopen, "cloud", "Recover", func() error {
					s, err := cloud.Recover(cfg)
					if err != nil {
						return err
					}
					if got := s.JournaledSubmits(); r == 0 {
						out.recovered = got
					} else if got != out.recovered {
						out.problem = fmt.Sprintf("Recover %d replayed %d submissions, the first %d", r, got, out.recovered)
					}
					return s.Close()
				})
				if err != nil {
					return nil, err
				}
			}
			it.jobs = out.simJobs * reads
			it.used.cpu = selfCPU() - cpu0
			return it, nil
		},
		verify: func(e *env, its []*iteration) (*verdict, error) {
			v := &verdict{}
			for n, it := range its {
				out := it.out.(*journaledOut)
				v.fact(e.golden, "jobs", strconv.Itoa(out.jobs))
				v.fact(e.golden, "sim_jobs", strconv.Itoa(out.simJobs))
				v.fact(e.golden, "trace_sha256", out.traceSHA)
				v.storedSize("journal_records", strconv.FormatInt(out.stats.Records, 10))
				v.storedSize("journal_bytes", strconv.FormatInt(out.stats.Bytes, 10))
				v.storedSize("journal_bytes_per_job", fmt.Sprintf("%.2f", float64(out.stats.Bytes)/float64(out.jobs)))
				v.storedSize("checkpoints", strconv.Itoa(out.stats.Checkpoints))
				v.check(out.problem == "", "iteration %d: %s", n, out.problem)
				v.check(out.held == 0, "iteration %d: journaled session held %d trace entries in memory", n, out.held)
				v.check(out.recovered == int64(out.jobs), "iteration %d: Recover replayed %d submissions of %d", n, out.recovered, out.jobs)
			}
			if e.golden != nil {
				return v, nil
			}
			ref, err := cloud.Simulate(memCfg(e), workload.Generate(gen(e)))
			if err != nil {
				return nil, err
			}
			want, err := traceCSVOf(ref)
			if err != nil {
				return nil, err
			}
			v.check(v.facts["trace_sha256"] == sha(want), "ReadJournalTrace CSV differs from the in-memory cloud.Simulate CSV")
			v.check(v.facts["sim_jobs"] == strconv.Itoa(simJobs(ref)), "journal read back %s simulated jobs, in-memory run %d", v.facts["sim_jobs"], simJobs(ref))
			return v, nil
		},
		shape: func(e *env) probeShape {
			g := gen(e)
			// Same arrival density as the workload, over a third of the
			// window.
			g.TotalJobs /= 3
			g.End = g.Start.Add(g.End.Sub(g.Start) / 3)
			return specShape(e.seed, g)
		},
	}
}

// --- tenants -------------------------------------------------------------

type tenantsOut struct {
	subs    int
	simJobs int
	dump    []byte // trace CSV + ledger + queue states
	problem string
}

func tenantsWorkload(why string, tenants, subs int, days float64) *workloadDef {
	tcfgOf := func(e *env) workload.TenantConfig {
		start, end := e.window(days)
		return workload.TenantConfig{
			Seed: e.seed, Start: start, End: end,
			Tenants: max(4, int(float64(tenants)*math.Sqrt(e.scale))), TotalJobs: e.n(subs, 100),
		}
	}
	// run plays the scenario through a broker and renders everything a
	// user reads from it.
	run := func(e *env, workers int, tr *tracer, it *iteration) (*tenantsOut, error) {
		sc, err := workload.FindTenantScenario("skewed")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tc := tcfgOf(e)
		sp := tr.begin(rootSpan, "workload", "TenantScenario.Build", -1)
		tcfg, stream := sc.Build(tc)
		tr.end(sp)
		tcfg.Preemption = true
		it.setup = time.Since(t0)

		out := &tenantsOut{subs: len(stream)}
		t1 := time.Now()
		sp = tr.begin(rootSpan, "tenant", "Open+Play", -1)
		b, err := tenant.Open(cloud.Config{Seed: e.seed, Start: tc.Start, End: tc.End, Workers: workers}, tcfg)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		if err := b.Play(stream); err != nil {
			return nil, err
		}
		tr.end(sp)
		it.phases[phaseAccept] = time.Since(t1)

		t2 := time.Now()
		sp = tr.begin(rootSpan, "tenant", "Run", -1)
		trc, err := b.Run()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		it.phases[phaseProcess] = time.Since(t2)

		t3 := time.Now()
		sp = tr.begin(rootSpan, "trace", "WriteCSV+dumps", -1)
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, trc.Jobs); err != nil {
			return nil, err
		}
		if err := b.Ledger().Dump(&buf, b.Now()); err != nil {
			return nil, err
		}
		if err := b.DumpStates(&buf); err != nil {
			return nil, err
		}
		tr.end(sp)
		it.phases[phaseReadout] = time.Since(t3)
		out.dump = buf.Bytes()
		out.simJobs = simJobs(trc)

		// Conservation: the ledger holds exactly the QPU time the trace
		// says tenant jobs used, and every arrival ended in one counter.
		busy := 0.0
		for _, j := range trc.Jobs {
			if strings.HasPrefix(j.User, "tenant:") {
				busy += j.EndTime.Sub(j.StartTime).Seconds()
			}
		}
		if raw := b.Ledger().RawTotal(); math.Abs(raw-busy) > 1e-6*math.Max(busy, 1) {
			out.problem = fmt.Sprintf("ledger raw total %.6f != tenant busy seconds in the trace %.6f", raw, busy)
		}
		arrived := 0
		for _, st := range b.States() {
			arrived += st.Arrived
			if st.Pending != 0 || st.InFlight != 0 || st.Done+st.Errored+st.Cancelled+st.Unserved != st.Arrived {
				out.problem = fmt.Sprintf("queue %s: counters do not account for its %d arrivals", st.Name, st.Arrived)
			}
		}
		if arrived != len(stream) {
			out.problem = fmt.Sprintf("queues saw %d arrivals of %d submissions", arrived, len(stream))
		}
		return out, nil
	}
	return &workloadDef{
		name: "tenants", why: why, threads: 1, minIters: 2,
		sizes: map[string]any{"scenario": "skewed", "tenants": tenants, "submissions": subs, "window_days": days, "preemption": true, "sim_workers": simWorkers},
		iterate: func(e *env, tr *tracer) (*iteration, error) {
			it := &iteration{ops: 3}
			cpu0 := selfCPU()
			out, err := run(e, simWorkers, tr, it)
			if err != nil {
				return nil, err
			}
			it.out = out
			it.jobs = out.simJobs
			it.used.cpu = selfCPU() - cpu0
			return it, nil
		},
		verify: func(e *env, its []*iteration) (*verdict, error) {
			v := &verdict{}
			for n, it := range its {
				out := it.out.(*tenantsOut)
				v.fact(e.golden, "submissions", strconv.Itoa(out.subs))
				v.fact(e.golden, "sim_jobs", strconv.Itoa(out.simJobs))
				v.fact(e.golden, "outputs_sha256", sha(out.dump))
				v.check(out.problem == "", "iteration %d: %s", n, out.problem)
			}
			if e.golden != nil {
				return v, nil
			}
			// Reference: the same scenario on a serial session.
			serial, err := run(e, 1, nil, &iteration{})
			if err != nil {
				return nil, err
			}
			v.check(v.facts["outputs_sha256"] == sha(serial.dump), "trace, ledger or queue states differ from the serial reference run")
			return v, nil
		},
		shape: func(e *env) probeShape {
			// Same arrival density over a quarter of the window.
			tc := tcfgOf(e)
			tc.TotalJobs /= 4
			tc.End = tc.Start.Add(tc.End.Sub(tc.Start) / 4)
			tc.Tenants = min(tc.Tenants, 50)
			s := specShape(e.seed, workload.Config{Seed: e.seed, TotalJobs: min(tc.TotalJobs, probeJobs), Start: tc.Start, End: tc.End})
			s.tenants = tc
			return s
		},
	}
}
