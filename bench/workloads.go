package main

// The eight workloads. Sizes were chosen from timings on a 2-vCPU host
// so that one pass takes 1.5 to 6 s and a 10 s run makes two to five of
// them; bench/README.md records the timings behind each size. The last
// two only read back what ingest and journaled write: in those two the
// read side is a fifth of a pass, too little for a slow replay to show
// within the bound.

var mixedCfg = daemonCfg{jobs: 4000, days: 90, workers: 1, mixed: true}

var workloads = []*workloadDef{
	daemonWorkload("ingest",
		"5000 minimal-exec specs: queue, WAL and HTTP/JSON do the work and qsim none, so a ready cursor, group commit or a WAL codec shows here",
		2, daemonCfg{jobs: 5000, days: 90, workers: 2}),
	daemonWorkload("execute",
		"60 specs forced to 16-18 qubits x 2 circuits x 512 shots: BuildBatch, BatchRun and MergeBatch dominate; queue and WAL changes must not move it",
		2, daemonCfg{jobs: 60, days: 60, wide: true, workers: 2}),
	daemonWorkload("mixed",
		"4000 specs on one closed-loop connection while a worker already drains, every 5th resubmitted, every 10th cancelled: submits contend with Pull, Result, Stats on one lock",
		1, mixedCfg),
	studyWorkload(
		"the paper at paper scale: qcloud-analyze over 6200 jobs, two years, all figures, as a child process; cloud.Simulate is most of it, then analysis, compile, noisy qsim",
		6200),
	journaledWorkload("journaled",
		"100000 jobs over 90 days through a journaled session checkpointing every 30 days, then ReadJournalTrace and Recover: internal/journal and the codecs, written and read back",
		100000, 90, 0),
	tenantsWorkload(
		"skewed scenario, 200 tenants, 20000 submissions, 60 days, preemption on: the broker's tick, ledger and preemption above the session study measures",
		200, 20000, 60),
	daemonWorkload("reopen",
		"set-up fills a state dir as ingest does (5000 specs, 14 days); timed: 5 dispatcher restarts on it, each fetching both CSVs, so WAL replay and readout are the whole path, not a fifth of it",
		2, daemonCfg{jobs: 5000, days: 14, workers: 2, readBack: 5}),
	journaledWorkload("readback",
		"set-up writes the journal journaled writes; timed: 5 ReadJournalTrace and 5 Recover on it, so a codec that is cheap to append and slow to scan or restore shows here in full",
		100000, 90, 5),
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
