package tenant_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/tenant"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

var btWindow = struct{ start, end time.Time }{
	start: time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC),
	end:   time.Date(2021, 2, 15, 0, 0, 0, 0, time.UTC),
}

func btMachines(t *testing.T) []*backend.Machine {
	t.Helper()
	var sel []*backend.Machine
	for _, m := range backend.Fleet() {
		switch m.Name {
		case "ibmq_athens", "ibmq_rome":
			sel = append(sel, m)
		}
	}
	if len(sel) != 2 {
		t.Fatalf("fleet is missing the test machines, got %d", len(sel))
	}
	return sel
}

// btConfig is a quiet, fault-free session config: conservation and
// convergence assertions need tenant jobs to be the only demand.
func btConfig(t *testing.T, seed int64, workers int) cloud.Config {
	bg := cloud.DefaultBackground()
	bg.PublicUtil, bg.PrivateUtil, bg.RampFloor = 0, 0, 0
	return cloud.Config{
		Seed: seed, Start: btWindow.start, End: btWindow.end,
		Machines: btMachines(t), Workers: workers, Background: bg,
	}
}

func btRun(t *testing.T, ccfg cloud.Config, tcfg tenant.Config, subs []tenant.Submission) (*tenant.Broker, *trace.Trace) {
	t.Helper()
	b, err := tenant.Open(ccfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Play(subs); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return b, tr
}

func btScenario(t *testing.T, name string, cfg workload.TenantConfig) (tenant.Config, []tenant.Submission) {
	t.Helper()
	sc, err := workload.FindTenantScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Build(cfg)
}

// tenantBusySeconds sums QPU busy time over the trace's tenant jobs —
// the ground truth the ledger must conserve.
func tenantBusySeconds(tr *trace.Trace) float64 {
	busy := 0.0
	for _, j := range tr.Jobs {
		if strings.HasPrefix(j.User, "tenant:") {
			busy += j.EndTime.Sub(j.StartTime).Seconds()
		}
	}
	return busy
}

// TestBrokerConservesQPUSeconds: the allocation ledger's raw total is
// exactly the QPU time the trace says tenant jobs consumed, per-queue
// decayed allocation never exceeds raw, and every arrival is accounted
// for in exactly one terminal counter.
func TestBrokerConservesQPUSeconds(t *testing.T) {
	tcfg, subs := btScenario(t, "uniform", workload.TenantConfig{
		Seed: 11, Start: btWindow.start, End: btWindow.end,
		Machines: btMachines(t), Tenants: 4, TotalJobs: 300,
	})
	b, tr := btRun(t, btConfig(t, 7, 2), tcfg, subs)

	busy := tenantBusySeconds(tr)
	if raw := b.Ledger().RawTotal(); math.Abs(raw-busy) > 1e-6*math.Max(busy, 1) {
		t.Fatalf("ledger raw total %.6f != trace tenant busy seconds %.6f", raw, busy)
	}
	if busy == 0 {
		t.Fatal("scenario produced no tenant QPU time")
	}
	for _, st := range b.States() {
		if st.Decayed > st.Raw+1e-9 {
			t.Fatalf("queue %s: decayed %.3f exceeds raw %.3f", st.Name, st.Decayed, st.Raw)
		}
		if st.Pending != 0 || st.InFlight != 0 {
			t.Fatalf("queue %s: %d pending / %d in flight after Run", st.Name, st.Pending, st.InFlight)
		}
		if got := st.Done + st.Errored + st.Cancelled + st.Unserved; got != st.Arrived {
			t.Fatalf("queue %s: terminal counters %d != arrivals %d", st.Name, got, st.Arrived)
		}
	}
}

// TestBrokerBitIdenticalAcrossWorkers: a full multi-tenant run — trace,
// ledger and queue state — is a pure function of the seed, independent
// of the session worker budget.
func TestBrokerBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) (traceJSON, ledger, states []byte) {
		tcfg, subs := btScenario(t, "skewed", workload.TenantConfig{
			Seed: 5, Start: btWindow.start, End: btWindow.end,
			Machines: btMachines(t), Tenants: 6, TotalJobs: 250,
		})
		tcfg.Preemption = true
		b, tr := btRun(t, btConfig(t, 9, workers), tcfg, subs)
		var tj, lg, st bytes.Buffer
		if err := trace.WriteJSON(&tj, tr); err != nil {
			t.Fatal(err)
		}
		if err := b.Ledger().Dump(&lg, b.Now()); err != nil {
			t.Fatal(err)
		}
		if err := b.DumpStates(&st); err != nil {
			t.Fatal(err)
		}
		return tj.Bytes(), lg.Bytes(), st.Bytes()
	}
	tj1, lg1, st1 := run(1)
	tj4, lg4, st4 := run(4)
	if !bytes.Equal(tj1, tj4) {
		t.Fatal("trace differs between serial and 4-worker runs")
	}
	if !bytes.Equal(lg1, lg4) {
		t.Fatalf("ledger dump differs between serial and 4-worker runs:\n%s\nvs\n%s", lg1, lg4)
	}
	if !bytes.Equal(st1, st4) {
		t.Fatalf("state dump differs between serial and 4-worker runs:\n%s\nvs\n%s", st1, st4)
	}
}

// TestBrokerGolden pins two brokered runs bit for bit: the SHA-256 of
// the trace JSON, of DumpStates, and of the float64 bits of every
// queue's decayed and raw ledger entry (Ledger.Dump rounds to 6 places
// and would hide a moved last bit). The skewed run preempts at 4
// workers. The priority-inversion run ends its window over backlogged
// machines, so zero-length window cancels share an end time on one
// machine: the one tie the drain's merge order within a machine meets.
func TestBrokerGolden(t *testing.T) {
	for _, c := range []struct {
		name                  string
		open                  func() (tenant.Config, []tenant.Submission, cloud.Config)
		trace, states, ledger string
	}{
		{
			name: "skewed",
			open: func() (tenant.Config, []tenant.Submission, cloud.Config) {
				tcfg, subs := btScenario(t, "skewed", workload.TenantConfig{
					Seed: 5, Start: btWindow.start, End: btWindow.end,
					Machines: btMachines(t), Tenants: 6, TotalJobs: 250,
				})
				tcfg.Preemption = true
				return tcfg, subs, btConfig(t, 9, 4)
			},
			trace:  "1813776fd8756e27be7e158b8b48f6b0e1868208cb7d0cf0239a359597889ac0",
			states: "2560ca0db3af316faae1647c5b021632ec7d5f48f6760677ac19eb7a95db1eaf",
			ledger: "45770faee1cd733239c9519d392e3ee2857da25a2c37d00dee3127cc4b38c782",
		},
		{
			name: "priority-inversion",
			open: func() (tenant.Config, []tenant.Submission, cloud.Config) {
				tcfg, subs := inversionScenario(t)
				ccfg := btConfig(t, 13, 2)
				ccfg.End = btWindow.start.Add(48 * time.Hour)
				return tcfg, subs, ccfg
			},
			trace:  "2af6fa11a0125d14d2cf635f3da2858cd088fad75232b2a111fba3ac1da5eb47",
			states: "1c27db05c119e0b49d078147e3d4ea2fd35b11b00977004deafe504a1919b756",
			ledger: "c86ec89e1df902a8679d34fec0a6bbd968c826ca60e79e9e2cf13f6bff6a74f8",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			tcfg, subs, ccfg := c.open()
			b, tr := btRun(t, ccfg, tcfg, subs)
			var tj, st bytes.Buffer
			if err := trace.WriteJSON(&tj, tr); err != nil {
				t.Fatal(err)
			}
			if err := b.DumpStates(&st); err != nil {
				t.Fatal(err)
			}
			var bits []byte
			for _, s := range b.States() {
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(s.Decayed))
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(s.Raw))
			}
			for _, g := range []struct {
				what string
				data []byte
				want string
			}{{"trace", tj.Bytes(), c.trace}, {"states", st.Bytes(), c.states}, {"ledger bits", bits, c.ledger}} {
				if got := fmt.Sprintf("%x", sha256.Sum256(g.data)); got != g.want {
					t.Errorf("%s hashes to %s, want %s", g.what, got, g.want)
				}
			}
			if c.name != "priority-inversion" {
				return
			}
			ends := make(map[string]int)
			ties := 0
			for _, j := range tr.Jobs {
				if strings.HasPrefix(j.User, "tenant:") {
					k := j.Machine + " " + j.EndTime.Format(time.RFC3339Nano)
					if ends[k]++; ends[k] == 2 {
						ties++
					}
				}
			}
			if ties == 0 {
				t.Fatal("no two tenant records share an end time on one machine; the tie case is not covered")
			}
		})
	}
}

// inversionScenario floods one machine with low-priority bulk work,
// then a high-priority queue arrives: the preemption A/B fixture.
func inversionScenario(t *testing.T) (tenant.Config, []tenant.Submission) {
	t.Helper()
	tcfg, subs := btScenario(t, "priority-inversion", workload.TenantConfig{
		Seed: 3, Start: btWindow.start, End: btWindow.start.Add(48 * time.Hour),
		Machines: btMachines(t), Tenants: 5, TotalJobs: 600,
	})
	return tcfg, subs
}

// TestBrokerSubmitRefusesUnrunnableSpec: a spec the session would
// refuse at admission (no shots, no circuits, no such machine) is
// refused by Broker.Submit, so it cannot sit at the head of its queue
// failing every later tick; a valid stream then plays and runs. Open
// refuses a journaled session, which keeps no records to account.
func TestBrokerSubmitRefusesUnrunnableSpec(t *testing.T) {
	tcfg, subs := inversionScenario(t)
	jcfg := btConfig(t, 13, 2)
	jcfg.Journal = &cloud.JournalConfig{Dir: t.TempDir()}
	if jb, err := tenant.Open(jcfg, tcfg); err == nil {
		jb.Close()
		t.Fatal("Open accepted a journaled session config")
	}
	b, err := tenant.Open(btConfig(t, 13, 2), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*cloud.JobSpec)
	}{
		{"shots 0", func(s *cloud.JobSpec) { s.Shots = 0 }},
		{"batch 0", func(s *cloud.JobSpec) { s.BatchSize = 0 }},
		{"unknown machine", func(s *cloud.JobSpec) { s.Machine = "ibmq_nowhere" }},
	} {
		bad := *subs[0].Spec
		c.mutate(&bad)
		if _, err := b.Submit(subs[0].Queue, &bad); err == nil {
			t.Fatalf("%s: Submit accepted a spec the session cannot run", c.name)
		}
	}
	if err := b.Play(subs); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("the valid stream ran no jobs")
	}
}

// TestPreemptionBoundsPriorityWait is the A/B acceptance check: with
// preemption on, the high-priority queue's mean release-to-start wait
// drops well below the no-preemption run, at nonzero preemption count,
// with the bulk queues' totals still conserved.
func TestPreemptionBoundsPriorityWait(t *testing.T) {
	waitOf := func(preempt bool) (float64, *tenant.Broker) {
		tcfg, subs := inversionScenario(t)
		tcfg.Preemption = preempt
		b, tr := btRun(t, btConfig(t, 13, 2), tcfg, subs)
		busy := tenantBusySeconds(tr)
		if raw := b.Ledger().RawTotal(); math.Abs(raw-busy) > 1e-6*math.Max(busy, 1) {
			t.Fatalf("preempt=%v: ledger %.3f != busy %.3f", preempt, raw, busy)
		}
		var st tenant.TenantState
		for _, s := range b.States() {
			if s.Name == "interactive" {
				st = s
			}
		}
		if st.Done == 0 {
			t.Fatalf("preempt=%v: interactive queue ran nothing (%+v)", preempt, st)
		}
		return st.WaitMean, b
	}
	off, bOff := waitOf(false)
	on, bOn := waitOf(true)
	if bOff.Metrics().Preemptions != 0 {
		t.Fatalf("preemption disabled but %d preemptions fired", bOff.Metrics().Preemptions)
	}
	if bOn.Metrics().Preemptions == 0 {
		t.Fatal("preemption enabled but never fired")
	}
	if on >= 0.7*off {
		t.Fatalf("preemption did not bound priority wait: %.1fs with vs %.1fs without", on, off)
	}
}

// TestPreemptReasonDistinct: broker preemptions are counted as
// CancelPreempted — distinguishable from user cancels — the
// conservation laws hold, and the broker's preemption count matches
// both the session's counts and the per-queue counters.
func TestPreemptReasonDistinct(t *testing.T) {
	tcfg, subs := inversionScenario(t)
	tcfg.Preemption = true
	b, err := tenant.Open(btConfig(t, 13, 2), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	// One explicit user cancel for contrast: a direct session
	// submission withdrawn straight away, before the broker starts.
	spec := *subs[0].Spec
	spec.SubmitTime = btWindow.start.Add(time.Minute)
	spec.User = "solo"
	h, err := b.Session().Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Session().Cancel(h); err != nil {
		t.Fatal(err)
	}
	if err := b.Play(subs); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	var preempted, userCancels int64
	for i, m := range b.Session().Stats() {
		preempted += m.Study.CancelPreempted
		userCancels += m.Study.CancelUser
		if m.Background.CancelPreempted != 0 {
			t.Fatalf("machine %d: %d background jobs counted as preempted; the broker preempts only its own", i, m.Background.CancelPreempted)
		}
		// The only cancel allowed to skip the queue entirely is the one
		// explicit pre-admission user cancel; every broker preemption
		// must hit a job that was actually enqueued.
		if got, want := m.Study.Enqueue, m.Study.Start+m.Study.Cancels()-m.Study.CancelUser; got != want {
			t.Fatalf("machine %d: study enqueue ≡ start+cancel−user cancels broken under preemption: %d vs %d", i, got, want)
		}
		if got, want := m.Background.Enqueue, m.Background.Start+m.Background.Cancels(); got != want {
			t.Fatalf("machine %d: background enqueue ≡ start+cancel broken under preemption: %d vs %d", i, got, want)
		}
		for _, c := range []cloud.Counts{m.Study, m.Background} {
			if got, want := c.Start, c.Done+c.Error+c.Retry; got != want {
				t.Fatalf("machine %d: start ≡ done+error+retry broken under preemption: %d vs %d", i, got, want)
			}
		}
	}
	if preempted != int64(b.Metrics().Preemptions) {
		t.Fatalf("%d study cancels counted as CancelPreempted, broker reports %d preemptions", preempted, b.Metrics().Preemptions)
	}
	if b.Metrics().Preemptions == 0 {
		t.Fatal("fixture fired no preemptions")
	}
	if userCancels != 1 {
		t.Fatalf("%d study cancels counted as CancelUser, want the 1 explicit user cancel", userCancels)
	}
	queued := 0
	for _, st := range b.States() {
		queued += st.Preempted
	}
	if queued != b.Metrics().Preemptions {
		t.Fatalf("per-queue preempted counters sum to %d, broker reports %d", queued, b.Metrics().Preemptions)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedFairShareConvergence200 is the acceptance scenario: 200
// tenants with 1/2/3-weighted shares, identical job shapes, all
// backlogged from the first hour. Every queue's realized share of raw
// allocation must land within 5% (relative) of its deserved share.
func TestWeightedFairShareConvergence200(t *testing.T) {
	machines := btMachines(t)
	const tenants = 200
	var queues []tenant.QueueConfig
	for i := 0; i < tenants; i++ {
		queues = append(queues, tenant.QueueConfig{
			Name:  fmt.Sprintf("t%03d", i),
			Share: float64(1 + i%3),
		})
	}
	// Identical job shape everywhere: share error can only come from
	// the broker's ordering, not workload noise. Demand (80 jobs per
	// weight unit) overshoots the 4-day window's capacity, so every
	// queue stays backlogged and shares are decided purely by the
	// broker.
	end := btWindow.start.Add(4 * 24 * time.Hour)
	var subs []tenant.Submission
	for i := 0; i < tenants; i++ {
		n := 80 * (1 + i%3)
		for j := 0; j < n; j++ {
			at := btWindow.start.Add(time.Duration(i*97+j*131) * time.Millisecond)
			subs = append(subs, tenant.Submission{
				Queue: fmt.Sprintf("t%03d", i),
				Spec: &cloud.JobSpec{
					SubmitTime: at, Machine: machines[(i+j)%2].Name,
					BatchSize: 12, Shots: 1024, CircuitName: "qft4",
					Width: 4, TotalDepth: 240, TotalGateOps: 800, CXTotal: 120, MemSlots: 4,
				},
			})
		}
	}
	ccfg := btConfig(t, 17, 4)
	ccfg.End = end
	tcfg := tenant.Config{
		Queues:        queues,
		HalfLife:      1000 * time.Hour, // effectively undecayed: raw shares are the target
		Tick:          time.Minute,
		MaxPerMachine: 2,
	}
	b, tr := btRun(t, ccfg, tcfg, subs)

	busy := tenantBusySeconds(tr)
	if raw := b.Ledger().RawTotal(); math.Abs(raw-busy) > 1e-6*busy {
		t.Fatalf("ledger raw total %.3f != trace busy %.3f", raw, busy)
	}
	m := b.Metrics()
	if m.JainIndex < 0.999 {
		t.Fatalf("Jain index %.5f, want ≥ 0.999", m.JainIndex)
	}
	worst, worstName := 0.0, ""
	for _, st := range b.States() {
		if st.Unserved == 0 && st.Pending == 0 {
			t.Fatalf("queue %s drained its backlog — demand must outlast the window for this assertion", st.Name)
		}
		rel := math.Abs(st.Share-st.Deserved) / st.Deserved
		if rel > worst {
			worst, worstName = rel, st.Name
		}
	}
	if worst > 0.05 {
		t.Fatalf("queue %s deviates %.2f%% from its deserved share (limit 5%%)", worstName, 100*worst)
	}
	t.Logf("200-tenant convergence: worst relative deviation %.2f%% (%s), Jain %.6f, %d preemptions",
		100*worst, worstName, m.JainIndex, m.Preemptions)
}
