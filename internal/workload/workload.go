// Package workload synthesizes the study's two-year job stream: the
// 6000+ jobs (600k+ circuits, ~10 billion shots) the paper analyzes.
// Demand grows exponentially month over month (Fig 2a), users choose
// machines with popularity- and size-driven heuristics (Figs 8, 9),
// batch sizes span 1-900 (Fig 11), and shots cluster at the IBM presets
// with a cap of 8192.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
)

// Config parameterizes workload generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Start and End bound the submission window (defaults: the study
	// period).
	Start, End time.Time
	// Machines is the fleet to target (default backend.Fleet()).
	Machines []*backend.Machine
	// TotalJobs is the expected number of jobs (default 6200; actual
	// count is Poisson-distributed around it).
	TotalJobs int
	// GrowthPerMonth is the exponential monthly demand growth rate
	// (default 0.22, ~e^6 over two years).
	GrowthPerMonth float64
}

// studyUsers is the study user-pool size.
const studyUsers = 12

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = backend.StudyStart
	}
	if c.End.IsZero() {
		c.End = backend.StudyEnd
	}
	if c.Machines == nil {
		c.Machines = backend.Fleet()
	}
	if c.TotalJobs <= 0 {
		c.TotalJobs = 6200
	}
	if c.GrowthPerMonth <= 0 {
		c.GrowthPerMonth = 0.22
	}
	return c
}

// user is a study-user profile driving machine and workload choices.
type user struct {
	name string
	// privileged users favor the paid, larger machines.
	privileged bool
	// batchDiscipline in [0,1]: disciplined users batch aggressively
	// (the paper notes users "are not always adept at combining their
	// executed circuits into a highly batched job").
	batchDiscipline float64
	// favorite circuit family index bias.
	famBias int
}

// circuitKind identifies a template family in the library.
type circuitKind int

const (
	kindGHZ circuitKind = iota
	kindBV
	kindQFT
	kindQAOA
	kindVQE
	//qcloud:keep pickKind draws this sixth kind by index and the default branches build it
	kindRandom
	numKinds
)

func (k circuitKind) String() string {
	switch k {
	case kindGHZ:
		return "ghz"
	case kindBV:
		return "bv"
	case kindQFT:
		return "qft"
	case kindQAOA:
		return "qaoa"
	case kindVQE:
		return "vqe"
	default:
		return "random"
	}
}

// templateMetrics builds (and caches) logical circuit metrics per
// (kind, width) template.
type templateCache map[string]circuit.Metrics

func (tc templateCache) metrics(kind circuitKind, width int, r *rand.Rand) circuit.Metrics {
	key := fmt.Sprintf("%s/%d", kind, width)
	if m, ok := tc[key]; ok {
		return m
	}
	var c *circuit.Circuit
	switch kind {
	case kindGHZ:
		c = gens.GHZ(width)
	case kindBV:
		c = gens.BernsteinVazirani(width-1, uint64(r.Int63())&((1<<uint(width-1))-1))
	case kindQFT:
		c = gens.QFT(width)
	case kindQAOA:
		c = gens.QAOAMaxCut(width, gens.RingEdges(width), 2)
	case kindVQE:
		c = gens.HardwareEfficientAnsatz(rand.New(rand.NewSource(int64(width)*31+7)), width, 3)
	default:
		c = gens.Random(rand.New(rand.NewSource(int64(width)*17+3)), width, 8+width, 0.3)
	}
	m := circuit.ComputeMetrics(c)
	tc[key] = m
	return m
}

// Generate produces the study job stream, sorted by submission time.
func Generate(cfg Config) []*cloud.JobSpec {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	users := makeUsers(r)
	cache := make(templateCache)

	months := monthsBetween(c.Start, c.End)
	weights := make([]float64, len(months))
	total := 0.0
	for i := range months {
		weights[i] = math.Exp(c.GrowthPerMonth * float64(i))
		total += weights[i]
	}
	var specs []*cloud.JobSpec
	for i, m := range months {
		expected := float64(c.TotalJobs) * weights[i] / total
		n := stats.Poisson(r, expected)
		// progress in [0,1] tracks how late in the study we are; job
		// shapes grow with it.
		progress := float64(i) / math.Max(float64(len(months)-1), 1)
		for j := 0; j < n; j++ {
			at := randomTimeInMonth(r, m, c.End)
			u := users[r.Intn(len(users))]
			spec := makeJob(r, c, u, cache, at, progress)
			if spec != nil {
				specs = append(specs, spec)
			}
		}
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].SubmitTime.Before(specs[b].SubmitTime) })
	return specs
}

func makeUsers(r *rand.Rand) []*user {
	users := make([]*user, studyUsers)
	for i := range users {
		users[i] = &user{
			name:            fmt.Sprintf("user-%02d", i),
			privileged:      i%3 == 0, // a third of the group has paid access
			batchDiscipline: r.Float64(),
			famBias:         r.Intn(int(numKinds)),
		}
	}
	return users
}

// monthsBetween lists the first day of every month in [start, end).
func monthsBetween(start, end time.Time) []time.Time {
	var months []time.Time
	m := time.Date(start.Year(), start.Month(), 1, 0, 0, 0, 0, time.UTC)
	for m.Before(end) {
		if !m.Before(start) || m.AddDate(0, 1, 0).After(start) {
			months = append(months, m)
		}
		m = m.AddDate(0, 1, 0)
	}
	return months
}

// randomTimeInMonth picks a submission instant inside the month,
// biased toward weekday working hours.
func randomTimeInMonth(r *rand.Rand, month, end time.Time) time.Time {
	next := month.AddDate(0, 1, 0)
	if next.After(end) {
		next = end
	}
	span := next.Sub(month)
	for attempt := 0; attempt < 8; attempt++ {
		at := month.Add(time.Duration(r.Float64() * float64(span)))
		h, wd := at.Hour(), at.Weekday()
		// Accept working-hours weekday times always; off-hours with
		// lower probability.
		accept := 0.35
		if wd != time.Saturday && wd != time.Sunday && h >= 8 && h <= 22 {
			accept = 1.0
		}
		if r.Float64() < accept {
			return at
		}
	}
	return month.Add(time.Duration(r.Float64() * float64(span)))
}

// makeJob assembles one JobSpec, or nil when no machine fits.
func makeJob(r *rand.Rand, cfg Config, u *user, cache templateCache, at time.Time, progress float64) *cloud.JobSpec {
	kind := pickKind(r, u)
	width := pickWidth(r, progress)
	machine := pickMachine(r, cfg.Machines, u, at, width)
	if machine == nil {
		return nil
	}
	if width > machine.NumQubits() {
		width = machine.NumQubits()
	}
	if width < 1 {
		width = 1
	}
	m := cache.metrics(kind, maxInt(width, 2), r)
	batch := pickBatch(r, u, progress)
	shots := pickShots(r, progress)
	// Aggregate batch-level features with mild per-circuit variation.
	varf := 0.85 + 0.3*r.Float64()
	spec := &cloud.JobSpec{
		SubmitTime:   at,
		User:         u.name,
		Machine:      machine.Name,
		BatchSize:    batch,
		Shots:        shots,
		CircuitName:  fmt.Sprintf("%s%d", kind, m.Width),
		Width:        m.Width,
		TotalDepth:   int(float64(m.Depth*batch) * varf),
		TotalGateOps: int(float64(m.GateOps*batch) * varf),
		CXTotal:      int(float64(m.CXCount*batch) * varf),
		MemSlots:     m.Width,
		PatienceSec:  (&stats.LogNormal{Mu: math.Log(2.2 * 24 * 3600), Sigma: 0.8}).Sample(r),
		Privileged:   u.privileged,
	}
	return spec
}

func pickKind(r *rand.Rand, u *user) circuitKind {
	// Favorite family gets extra weight.
	w := []float64{2, 2, 2.5, 1.5, 1.5, 1}
	w[u.famBias] += 2.5
	return circuitKind(stats.WeightedChoice(r, w))
}

// pickWidth draws a circuit width: NISQ-era circuits are small, with
// the tail growing as the study progresses.
func pickWidth(r *rand.Rand, progress float64) int {
	base := &stats.LogNormal{Mu: 1.1 + 0.5*progress, Sigma: 0.45}
	return int(stats.Clamp(base.Sample(r), 2, 30))
}

// pickBatch draws the circuits-per-job batch size (Fig 11's 1-900
// spread). Disciplined users and later periods batch more.
func pickBatch(r *rand.Rand, u *user, progress float64) int {
	mu := 1.8 + 2.6*u.batchDiscipline + 1.7*progress
	b := int(stats.Clamp((&stats.LogNormal{Mu: mu, Sigma: 1.0}).Sample(r), 1, 900))
	// A slice of disciplined users max the batch out entirely.
	if u.batchDiscipline > 0.85 && r.Float64() < 0.25 {
		b = 900
	}
	return b
}

// pickShots draws the per-circuit shot count from the IBM presets,
// capped at 8192.
func pickShots(r *rand.Rand, progress float64) int {
	w := []float64{0.30 - 0.15*progress, 0.30, 0.40 + 0.15*progress}
	presets := []int{1024, 4096, 8192}
	return presets[stats.WeightedChoice(r, w)]
}

// pickMachine implements the user machine-selection heuristic: among
// machines online at submission with enough qubits, weight by
// popularity; privileged users triple the weight of private machines,
// public users can only use public ones.
func pickMachine(r *rand.Rand, machines []*backend.Machine, u *user, at time.Time, width int) *backend.Machine {
	var candidates []*backend.Machine
	var weights []float64
	for _, m := range machines {
		if !m.AvailableAt(at) || m.NumQubits() < width {
			continue
		}
		if !m.Public && !u.privileged {
			continue
		}
		w := m.Popularity
		if u.privileged {
			if !m.Public {
				w *= 3 // privileged users exploit their quieter machines
			} else {
				w *= 0.6
			}
		}
		if m.Simulator {
			w *= 0.5 // the study focuses on hardware
		}
		candidates = append(candidates, m)
		weights = append(weights, w)
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[stats.WeightedChoice(r, weights)]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
