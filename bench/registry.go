package main

// This file is the single registry of names: every workload, every
// metric, its unit, direction and regression bound, and which
// end-to-end metric a per-layer metric is expected to move. The
// BENCHMARK.json at the repository root is checked against it by
// TestManifestMatchesRegistry, and later issues cite these names.

// runSeconds is how long one run measures; BENCHMARK.json repeats it.
const runSeconds = 10

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the package it measures
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
	Def    string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each is defined for all eight.
var endToEnd = []metricDef{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "jobs through the workload's whole timed path per second of that path, median over the passes of a run. " +
			"ingest, execute, mixed: submit, drain, fetch both CSVs, one dispatcher restart; study: generated study jobs per " +
			"qcloud-analyze run; journaled: study + background jobs over Open+Submit, DrainJournal, ReadJournalTrace, " +
			"Recover; tenants: study + background jobs over Open+Play, Run, trace CSV + ledger dump; reopen: specs x 5 over five " +
			"dispatcher restarts on a filled state dir, each until /v1/status answers and both CSVs are fetched; readback: " +
			"study + background jobs x 5 over five ReadJournalTrace and five Recover calls on a written journal."},
	{Name: "cpu_us_per_job", Unit: "us", Better: "lower", Bound: 0.25,
		Def: "CPU time (user + system) the programs under test spent per job: dispatcher + workers for the daemon workloads, " +
			"qcloud-analyze for study, this process for the in-process ones; reopen and readback count the timed part only. " +
			"Median over passes."},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		Def: "resident-set high-water mark (VmHWM): dispatcher + workers summed for the daemon workloads, qcloud-analyze for " +
			"study (median over passes), this process at the end of the timed window for the in-process ones (readback's " +
			"includes writing the journal); reopen: the largest restarted dispatcher."},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "start of a pass to its first timed operation: spec generation from the seed, a fresh state directory, daemons " +
			"answering /v1/status; on reopen and readback also everything that fills the state dir or journal they read. " +
			"Building binaries and loading goldens are excluded. Median over passes."},
}

// Phases every workload's timed path is split into; a traced run
// reports them as phase.* metrics (0 where a workload has no such
// phase).
const (
	phaseAccept  = iota // jobs enter the system
	phaseProcess        // accepted jobs reach a terminal state
	phaseReadout        // finished state becomes the output a user reads
	phaseReopen         // durable state is read back by a fresh process or session
	numPhases
)

var phaseNames = [numPhases]string{"accept", "process", "readout", "reopen"}

// perLayer are the metrics of single layers, reported by a traced run.
// Each is measured from outside, by timing calls into exported
// functions on inputs of the workload's shape at probe scale.
var perLayer = []metricDef{
	// The traced iteration itself.
	{Name: "phase.accept_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "jobs_per_s", Def: "traced iteration: jobs enter (HTTP submit, Session.Submit, Broker.Play)"},
	{Name: "phase.process_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "jobs_per_s", Def: "traced iteration: accepted jobs reach a terminal state (worker drain, DrainJournal, Broker.Run, one qcloud-analyze run)"},
	{Name: "phase.readout_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "jobs_per_s", Def: "traced iteration: outputs produced (GET trace + counts CSV, ReadJournalTrace, trace CSV + ledger dump); the sum of five on reopen and readback"},
	{Name: "phase.reopen_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "jobs_per_s", Def: "traced iteration: durable state read back (dispatcher restart until /v1/status answers, cloud.Recover); the sum of five on reopen and readback"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "bench", Moves: "none", Def: "traced iteration wall time / untraced iteration wall time - 1"},

	{Name: "workload.generate_ns_per_job", Unit: "ns", Better: "lower", Layer: "workload", Moves: "setup_s everywhere", Def: "workload.Generate at the workload's full size"},
	{Name: "workload.tenant_build_ns_per_sub", Unit: "ns", Better: "lower", Layer: "workload", Moves: "setup_s on tenants", Def: "TenantScenario.Build per submission"},

	{Name: "wire.plan_ns", Unit: "ns", Better: "lower", Layer: "dispatch/wire", Moves: "setup_s on ingest, execute, mixed", Def: "wire.Plan per spec"},
	{Name: "wire.encode_record_ns", Unit: "ns", Better: "lower", Layer: "dispatch/wire", Moves: "jobs_per_s on ingest (accept)", Def: "EncodeRecord of a submit record"},
	{Name: "wire.decode_record_ns", Unit: "ns", Better: "lower", Layer: "dispatch/wire", Moves: "jobs_per_s on reopen", Def: "DecodeRecord + payload unmarshal of a submit record"},
	{Name: "wire.submit_json_bytes", Unit: "B", Better: "lower", Layer: "dispatch/wire", Moves: "queue.wal_bytes_per_submit", Def: "mean JSON size of a SubmitRequest"},
	{Name: "wire.build_batch_ns_per_unit", Unit: "ns", Better: "lower", Layer: "dispatch/wire", Moves: "jobs_per_s on execute only", Def: "BuildBatch per unit"},
	{Name: "wire.merge_batch_ns_per_unit", Unit: "ns", Better: "lower", Layer: "dispatch/wire", Moves: "jobs_per_s on execute only", Def: "MergeBatch per unit"},

	{Name: "journal.append_flush_ns_per_rec", Unit: "ns", Better: "lower", Layer: "journal", Moves: "jobs_per_s on ingest, mixed, journaled", Def: "Append + Flush per record (the ack barrier)"},
	{Name: "journal.append_ns_per_rec", Unit: "ns", Better: "lower", Layer: "journal", Moves: "ceiling of what group commit can buy", Def: "Append per record, Flush every 64"},
	{Name: "journal.foreach_ns_per_rec", Unit: "ns", Better: "lower", Layer: "journal", Moves: "jobs_per_s on reopen, readback", Def: "ForEach per record"},
	{Name: "journal.frame_overhead_bytes", Unit: "B", Better: "lower", Layer: "journal", Moves: "queue.wal_bytes_per_submit", Def: "segment bytes per record beyond the payload"},

	{Name: "queue.submit_ns", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed", Def: "Queue.Submit, unique keys"},
	{Name: "queue.submit_dup_ns", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on mixed", Def: "Queue.Submit of a key already held"},
	{Name: "queue.pull_ns_per_unit.d1k", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed", Def: "Queue.Pull(4) per unit, 1 000 tasks queued"},
	{Name: "queue.pull_ns_per_unit.d20k", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed; d20k/d1k is the O(N) evidence", Def: "Queue.Pull(4) per unit, 20 000 tasks queued"},
	{Name: "queue.result_ns.d1k", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed", Def: "Queue.Result, 1 000 tasks"},
	{Name: "queue.result_ns.d20k", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed", Def: "Queue.Result, 20 000 tasks"},
	{Name: "queue.cancel_ns", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on mixed", Def: "Queue.Cancel by key, 1 000 tasks"},
	{Name: "queue.heartbeat_ns", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on execute", Def: "Queue.Heartbeat of 4 leases, 1 000 tasks"},
	{Name: "queue.stats_ns.d20k", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed (status polls share the lock)", Def: "Queue.Stats, 20 000 tasks"},
	{Name: "queue.open_replay_ns_per_rec", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on reopen", Def: "OpenQueue on the 20 000-task state dir per WAL record"},
	{Name: "queue.wal_bytes_per_submit", Unit: "B", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest", Def: "submit-log segment bytes per submission (exact)"},
	{Name: "queue.wal_bytes_per_result", Unit: "B", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on execute", Def: "completion-log segment bytes per result (exact)"},

	{Name: "http.submit_rtt_p50_us", Unit: "us", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, mixed", Def: "closed-loop POST /v1/submit round trip, one connection"},
	{Name: "http.submit_rtt_p99_us", Unit: "us", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on mixed", Def: "same, 99th percentile"},
	{Name: "http.submit_rtt_p999_us", Unit: "us", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on mixed", Def: "same, 99.9th percentile (n = 12 000)"},
	{Name: "http.submit_handler_ns", Unit: "ns", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest", Def: "Handler().ServeHTTP of a submit on a recorder minus queue.submit_ns: JSON + routing self time"},
	{Name: "http.pull_rtt_us", Unit: "us", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest", Def: "POST /v1/pull round trip, median"},
	{Name: "http.result_rtt_us", Unit: "us", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on ingest, execute", Def: "POST /v1/result round trip, median"},
	{Name: "http.mixed_late_p99_ms", Unit: "ms", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on mixed; a group-commit timer shows here first", Def: "mixed's operation stream as an open loop at 1000 ops/s, one connection, a worker draining: ack time minus due time, 99th percentile"},
	{Name: "http.mixed_within_limit_share", Unit: "share", Better: "higher", Layer: "dispatch", Moves: "jobs_per_s on mixed", Def: "same open loop: operations acked within 5 ms of their due time / operations attempted"},
	{Name: "http.generator_lag_max_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "none (validity of the open loop)", Def: "open loop: latest send relative to its due time"},
	{Name: "dispatcher.trace_replay_s", Unit: "s", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on reopen; ingest (readout)", Def: "Dispatcher.TraceCSV on the sealed probe stream"},
	{Name: "dispatcher.counts_csv_s", Unit: "s", Better: "lower", Layer: "dispatch", Moves: "jobs_per_s on reopen; execute (readout)", Def: "Dispatcher.CountsCSV on the drained probe stream"},
	{Name: "worker.units_per_s", Unit: "1/s", Better: "higher", Layer: "dispatch", Moves: "jobs_per_s on ingest, execute", Def: "one in-process Worker draining the probe stream"},
	{Name: "worker.overhead_share", Unit: "share", Better: "lower", Layer: "dispatch", Moves: "near 1: queue/HTTP changes help; near 0: qsim changes help", Def: "1 - BatchRun time for the same units / drain time"},

	{Name: "qsim.batchrun_ns_per_unit", Unit: "ns", Better: "lower", Layer: "qsim", Moves: "jobs_per_s on execute", Def: "BatchRun over the probe units, one worker"},
	{Name: "qsim.exact_amp_updates_per_s", Unit: "1/s", Better: "higher", Layer: "qsim", Moves: "jobs_per_s on execute", Def: "computed: kernel sweeps x 2^16 / time of one exact 16-qubit QFT"},
	{Name: "qsim.kernel_sweeps_per_circuit", Unit: "count", Better: "lower", Layer: "qsim", Moves: "jobs_per_s on execute", Def: "KernelCounts blocked sweeps of the 10-qubit QFT benchmark (exact)"},
	{Name: "qsim.trajectory_shots_per_s", Unit: "1/s", Better: "higher", Layer: "qsim", Moves: "jobs_per_s on study (Fig 7)", Def: "noisy 10-qubit trajectories, one worker"},
	{Name: "qsim.allocs_per_shot", Unit: "count", Better: "lower", Layer: "qsim", Moves: "jobs_per_s on study", Def: "heap allocations per noisy trajectory shot"},

	{Name: "cloud.simulate_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on study, journaled, tenants; ingest readout", Def: "cloud.Simulate of the probe stream, serial"},
	{Name: "cloud.ns_per_sim_job", Unit: "ns", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on study, journaled, tenants", Def: "simulate_s per study + background job"},
	{Name: "cloud.allocs_per_sim_job", Unit: "count", Better: "lower", Layer: "cloud", Moves: "peak_rss_mb, cpu_us_per_job", Def: "heap allocations per simulated job"},
	{Name: "cloud.bytes_per_sim_job", Unit: "B", Better: "lower", Layer: "cloud", Moves: "peak_rss_mb", Def: "heap bytes allocated per simulated job"},
	{Name: "cloud.submit_ns", Unit: "ns", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled (accept)", Def: "Session.Submit, in memory"},
	{Name: "cloud.online_ns_per_job", Unit: "ns", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on tenants", Def: "AdvanceTo + QueueState + Submit per job in arrival order"},
	{Name: "cloud.journal_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled only", Def: "journaled session time / in-memory session time (base: in-memory)"},
	{Name: "cloud.journal_records", Unit: "count", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled", Def: "frames the journaled probe session wrote (exact)"},
	{Name: "cloud.journal_bytes_per_job", Unit: "B", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled", Def: "journal bytes per finished-job record (exact)"},
	{Name: "cloud.held_trace_entries", Unit: "count", Better: "lower", Layer: "cloud", Moves: "peak_rss_mb on journaled", Def: "trace records a journaled session holds in memory at window end"},
	{Name: "cloud.checkpoint_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled", Def: "Session.Checkpoint + WriteCheckpoint at mid-window"},
	{Name: "cloud.checkpoint_bytes", Unit: "B", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on journaled", Def: "serialized checkpoint size"},
	{Name: "cloud.restore_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on readback", Def: "ReadCheckpoint + Restore"},
	{Name: "cloud.recover_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on readback", Def: "cloud.Recover on the sealed probe journal"},
	{Name: "cloud.read_journal_trace_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on readback", Def: "cloud.ReadJournalTrace on the sealed probe journal"},
	{Name: "cloud.resultset_ingest_ns", Unit: "ns", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on execute (readout)", Def: "ResultSet.Ingest per result"},
	{Name: "cloud.resultset_writecsv_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on execute (readout)", Def: "ResultSet.WriteCSV of the probe results"},

	{Name: "tenant.run_s", Unit: "s", Better: "lower", Layer: "tenant", Moves: "jobs_per_s on tenants", Def: "tenant.Open + Play + Run, preemption on"},
	{Name: "tenant.direct_s", Unit: "s", Better: "lower", Layer: "cloud", Moves: "jobs_per_s on tenants", Def: "the same stream through cloud.Simulate, no broker"},
	{Name: "tenant.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "tenant", Moves: "jobs_per_s on tenants only", Def: "run_s / direct_s (base: direct)"},
	{Name: "tenant.allocs_per_submission", Unit: "count", Better: "lower", Layer: "tenant", Moves: "cpu_us_per_job on tenants", Def: "heap allocations of the brokered run per submission"},
	{Name: "tenant.preemptions", Unit: "count", Better: "lower", Layer: "tenant", Moves: "none (exact behaviour count)", Def: "jobs the broker displaced"},
	{Name: "tenant.jain", Unit: "share", Better: "higher", Layer: "tenant", Moves: "none (fairness must not be traded for speed)", Def: "Jain index of share/deserved"},
	{Name: "tenant.max_dev", Unit: "share", Better: "lower", Layer: "tenant", Moves: "none", Def: "largest |share - deserved|"},

	{Name: "trace.writecsv_ns_per_job", Unit: "ns", Better: "lower", Layer: "trace", Moves: "jobs_per_s on reopen, readback; ingest (readout)", Def: "trace.WriteCSV per job"},
	{Name: "trace.readcsv_ns_per_job", Unit: "ns", Better: "lower", Layer: "trace", Moves: "none in the benchmark (qcloud-analyze -trace path)", Def: "trace.ReadCSV per job"},
	{Name: "trace.appendjob_ns", Unit: "ns", Better: "lower", Layer: "trace", Moves: "jobs_per_s on journaled", Def: "trace.AppendJob per job"},
	{Name: "trace.decodejob_ns", Unit: "ns", Better: "lower", Layer: "trace", Moves: "jobs_per_s on readback", Def: "trace.DecodeJob per job"},

	{Name: "analysis.trace_figs_s", Unit: "s", Better: "lower", Layer: "analysis", Moves: "jobs_per_s on study only", Def: "the trace-driven figure functions over the probe trace"},
	{Name: "analysis.fig7_s", Unit: "s", Better: "lower", Layer: "analysis", Moves: "jobs_per_s on study only", Def: "FidelityVsCXMetrics, five machines, 4 qubits, 200 shots"},
	{Name: "analysis.prediction_s", Unit: "s", Better: "lower", Layer: "analysis", Moves: "jobs_per_s on study only", Def: "PredictionCorrelations over the probe trace"},
	{Name: "compile.qft_ns_per_circuit", Unit: "ns", Better: "lower", Layer: "compile", Moves: "jobs_per_s on study only", Def: "compile.Compile of QFT(8) onto ibmq_16_melbourne"},
	{Name: "compile.swaps_added", Unit: "count", Better: "lower", Layer: "compile", Moves: "none (exact)", Def: "two-qubit gates the compiled QFT(8) has beyond the logical circuit"},
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// registryManifest renders the registry as BENCHMARK.json must read.
func registryManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
