package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
	"qcloud/internal/tenant"
)

// TenantConfig parameterizes multi-tenant scenario generation.
type TenantConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Start and End bound the arrival window (defaults: three weeks
	// from the study start).
	Start, End time.Time
	// Machines is the fleet to target (default backend.Fleet()).
	Machines []*backend.Machine
	// Tenants is the leaf-queue count where the scenario scales
	// (default 8).
	Tenants int
	// TotalJobs is the expected submission count across all tenants
	// (default 1200).
	TotalJobs int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Start.IsZero() {
		c.Start = backend.StudyStart
	}
	if c.End.IsZero() {
		c.End = c.Start.Add(21 * 24 * time.Hour)
	}
	if c.Machines == nil {
		c.Machines = backend.Fleet()
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.TotalJobs <= 0 {
		c.TotalJobs = 1200
	}
	return c
}

// TenantScenario is a named multi-tenant contention preset: the quota
// tree plus the submission stream that stresses it.
type TenantScenario struct {
	Name string
	// Desc is a one-line human description for CLI listings.
	Desc string
	// Build produces the broker config (queues included) and the
	// arrival-ordered submission stream for the given parameters.
	Build func(cfg TenantConfig) (tenant.Config, []tenant.Submission)
}

// TenantScenarios returns the built-in multi-tenant presets.
func TenantScenarios() []TenantScenario {
	return []TenantScenario{
		{
			Name:  "uniform",
			Desc:  "equal shares, equal demand — the sanity baseline",
			Build: buildUniform,
		},
		{
			Name:  "skewed",
			Desc:  "Zipf-weighted shares under saturating demand from everyone",
			Build: buildSkewed,
		},
		{
			Name:  "flash-crowd",
			Desc:  "steady trickle, then one tenant floods half the total volume in two days",
			Build: buildFlashCrowd,
		},
		{
			Name:  "priority-inversion",
			Desc:  "bulk tenants backlog the fleet before a high-priority interactive tenant arrives",
			Build: buildPriorityInversion,
		},
	}
}

// FindTenantScenario resolves a preset by name.
func FindTenantScenario(name string) (TenantScenario, error) {
	for _, s := range TenantScenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return TenantScenario{}, fmt.Errorf("workload: unknown tenant scenario %q", name)
}

// brokerDefaults is the broker tuning the presets share: a short decay
// half-life and tick relative to the (weeks-long) scenario windows.
func brokerDefaults(queues []tenant.QueueConfig) tenant.Config {
	return tenant.Config{
		Queues:        queues,
		HalfLife:      12 * time.Hour,
		Tick:          2 * time.Minute,
		MaxPerMachine: 2,
	}
}

// tenantJob synthesizes one tenant job spec: modest NISQ circuits on a
// popularity-weighted public machine that is online at submission.
func tenantJob(r *rand.Rand, c TenantConfig, cache *templateCache, at time.Time) *cloud.JobSpec {
	// The buffers stay on the stack for any fleet up to 32 machines.
	var candBuf [32]*backend.Machine
	var weightBuf [32]float64
	candidates, weights := candBuf[:0], weightBuf[:0]
	for _, m := range c.Machines {
		if !m.Public || m.Simulator || !m.AvailableAt(at) || m.NumQubits() < 4 {
			continue
		}
		candidates = append(candidates, m)
		weights = append(weights, m.Popularity)
	}
	if len(candidates) == 0 {
		return nil
	}
	machine := candidates[stats.WeightedChoice(r, weights)]
	kinds := [...]circuitKind{kindGHZ, kindBV, kindQFT}
	kind := kinds[r.Intn(len(kinds))]
	width := 3 + r.Intn(3)
	if width > machine.NumQubits() {
		width = machine.NumQubits()
	}
	t := cache.get(kind, width, r)
	batch := 1 + int(stats.Clamp((&stats.LogNormal{Mu: 2.2, Sigma: 0.8}).Sample(r), 0, 120))
	shots := shotPresets[r.Intn(len(shotPresets))]
	varf := 0.85 + 0.3*r.Float64()
	return &cloud.JobSpec{
		SubmitTime:   at,
		Machine:      machine.Name,
		BatchSize:    batch,
		Shots:        shots,
		CircuitName:  t.name,
		Width:        t.m.Width,
		TotalDepth:   int(float64(t.m.Depth*batch) * varf),
		TotalGateOps: int(float64(t.m.GateOps*batch) * varf),
		CXTotal:      int(float64(t.m.CXCount*batch) * varf),
		MemSlots:     t.m.Width,
	}
}

// tenantStream appends ~n submissions for one queue to subs, arrivals
// uniform in [from, to).
func tenantStream(subs []tenant.Submission, r *rand.Rand, c TenantConfig, cache *templateCache, queue string, n int, from, to time.Time) []tenant.Submission {
	span := to.Sub(from)
	for i := 0; i < n; i++ {
		at := from.Add(time.Duration(r.Float64() * float64(span)))
		if spec := tenantJob(r, c, cache, at); spec != nil {
			subs = append(subs, tenant.Submission{Queue: queue, Spec: spec})
		}
	}
	return subs
}

// sortSubs orders the submissions by arrival, ties in stream order.
func sortSubs(subs []tenant.Submission) []tenant.Submission {
	slices.SortStableFunc(subs, func(a, b tenant.Submission) int {
		return a.Spec.SubmitTime.Compare(b.Spec.SubmitTime)
	})
	return subs
}

func buildUniform(cfg TenantConfig) (tenant.Config, []tenant.Submission) {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	cache := new(templateCache)
	var queues []tenant.QueueConfig
	var subs []tenant.Submission
	per := c.TotalJobs / c.Tenants
	for i := 0; i < c.Tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		queues = append(queues, tenant.QueueConfig{Name: name, Share: 1})
		subs = tenantStream(subs, r, c, cache, name, per, c.Start, c.End)
	}
	return brokerDefaults(queues), sortSubs(subs)
}

// buildSkewed gives tenant i the Zipf share 1/(i+1) while every tenant
// submits the same saturating volume — the convergence stressor: raw
// allocation must track the deserved shares, not the demand.
func buildSkewed(cfg TenantConfig) (tenant.Config, []tenant.Submission) {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	cache := new(templateCache)
	var queues []tenant.QueueConfig
	var subs []tenant.Submission
	per := c.TotalJobs / c.Tenants
	for i := 0; i < c.Tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		queues = append(queues, tenant.QueueConfig{
			Name:            name,
			Share:           1 / float64(i+1),
			OverQuotaWeight: 1 / float64(i+1),
		})
		subs = tenantStream(subs, r, c, cache, name, per, c.Start, c.End)
	}
	return brokerDefaults(queues), sortSubs(subs)
}

// buildFlashCrowd runs a steady equal-share trickle, then tenant t00
// floods half the total volume into a two-day window mid-run. The
// decayed ledger should cap the crowd near its deserved share during
// the flood and forgive it afterwards.
func buildFlashCrowd(cfg TenantConfig) (tenant.Config, []tenant.Submission) {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	cache := new(templateCache)
	var queues []tenant.QueueConfig
	var subs []tenant.Submission
	per := c.TotalJobs / (2 * c.Tenants)
	for i := 0; i < c.Tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		queues = append(queues, tenant.QueueConfig{Name: name, Share: 1})
		subs = tenantStream(subs, r, c, cache, name, per, c.Start, c.End)
	}
	mid := c.Start.Add(c.End.Sub(c.Start) / 2)
	subs = tenantStream(subs, r, c, cache, "t00", c.TotalJobs/2, mid, mid.Add(48*time.Hour))
	return brokerDefaults(queues), sortSubs(subs)
}

// bulkStream appends ~n long-running submissions for one queue to
// subs: maxed batches at the full shot preset, the multi-hour jobs
// that wedge a machine queue.
func bulkStream(subs []tenant.Submission, r *rand.Rand, c TenantConfig, cache *templateCache, queue string, n int, from, to time.Time) []tenant.Submission {
	span := to.Sub(from)
	for i := 0; i < n; i++ {
		at := from.Add(time.Duration(r.Float64() * float64(span)))
		spec := tenantJob(r, c, cache, at)
		if spec == nil {
			continue
		}
		scale := float64(200+r.Intn(500)) / float64(spec.BatchSize)
		spec.BatchSize = int(float64(spec.BatchSize) * scale)
		spec.TotalDepth = int(float64(spec.TotalDepth) * scale)
		spec.TotalGateOps = int(float64(spec.TotalGateOps) * scale)
		spec.CXTotal = int(float64(spec.CXTotal) * scale)
		spec.Shots = 8192
		subs = append(subs, tenant.Submission{Queue: queue, Spec: spec})
	}
	return subs
}

// buildPriorityInversion floods the fleet with low-priority bulk
// tenants' long jobs in the first half of the window; a high-priority
// "interactive" queue submits sporadic short jobs from the midpoint
// on. With preemption on, its release latency is bounded by the
// residual of whatever is executing instead of the bulk backlog.
func buildPriorityInversion(cfg TenantConfig) (tenant.Config, []tenant.Submission) {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	cache := new(templateCache)
	var queues []tenant.QueueConfig
	var subs []tenant.Submission
	bulk := c.Tenants - 1
	if bulk < 1 {
		bulk = 1
	}
	mid := c.Start.Add(c.End.Sub(c.Start) / 2)
	per := (c.TotalJobs * 9 / 10) / bulk
	for i := 0; i < bulk; i++ {
		name := fmt.Sprintf("bulk%02d", i)
		queues = append(queues, tenant.QueueConfig{Name: name, Share: 1})
		subs = bulkStream(subs, r, c, cache, name, per, c.Start, mid)
	}
	queues = append(queues, tenant.QueueConfig{Name: "interactive", Share: 1, Priority: 1})
	subs = tenantStream(subs, r, c, cache, "interactive", c.TotalJobs/10, mid, c.End)
	tc := brokerDefaults(queues)
	tc.Preemption = true
	return tc, sortSubs(subs)
}
