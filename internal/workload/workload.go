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
	"slices"
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

// maxWidth is the widest template: pickWidth's clamp, and no machine
// or tenant job widens a circuit past its draw.
const maxWidth = 30

// template is one (kind, width) circuit template: its logical metrics
// and the CircuitName its jobs carry.
type template struct {
	built bool
	m     circuit.Metrics
	name  string
}

// templateCache holds the templates by (kind, width), each built on
// its first use. A BV template draws its secret from the stream's
// generator then, so the cache is part of a stream's state.
type templateCache [numKinds][maxWidth + 1]template

func (tc *templateCache) get(kind circuitKind, width int, r *rand.Rand) *template {
	t := &tc[kind][width]
	if t.built {
		return t
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
	t.m = circuit.ComputeMetrics(c)
	t.name = fmt.Sprintf("%s%d", kind, t.m.Width)
	t.built = true
	return t
}

// patience is the job-side cancellation wait: log-normal around 2.2
// days.
var patience = stats.LogNormal{Mu: math.Log(2.2 * 24 * 3600), Sigma: 0.8}

// fleetMachine is one machine as pickMachine reads it inside the
// current month.
type fleetMachine struct {
	m      *backend.Machine
	qubits int
	public bool
	// wPriv and wPub are the selection weights of a privileged and a
	// public user.
	wPriv, wPub float64
	// on and off bound the machine's online window as offsets from the
	// month's first instant: it is online at offset at iff
	// on <= at < off.
	on, off time.Duration
}

// generator is one stream's state: its random source, users and
// templates, the fleet as seen from the current month, and the buffers
// pickMachine reuses from job to job.
type generator struct {
	r     *rand.Rand
	users []*user
	cache templateCache
	fleet []fleetMachine

	// from is the current month's first instant inside the window and
	// span its length; fromNs is from's offset into its UTC day and
	// fromDay its weekday.
	from    time.Time
	span    float64
	fromNs  int64
	fromDay int64

	cand    []*backend.Machine
	weights []float64
}

func newGenerator(c Config) *generator {
	g := &generator{r: rand.New(rand.NewSource(c.Seed))}
	g.users = makeUsers(g.r)
	g.fleet = make([]fleetMachine, len(c.Machines))
	for i, m := range c.Machines {
		f := fleetMachine{m: m, qubits: m.NumQubits(), public: m.Public, wPriv: m.Popularity, wPub: m.Popularity}
		if !m.Public {
			f.wPriv *= 3 // privileged users exploit their quieter machines
		} else {
			f.wPriv *= 0.6
		}
		if m.Simulator {
			// The study focuses on hardware.
			f.wPriv *= 0.5
			f.wPub *= 0.5
		}
		g.fleet[i] = f
	}
	g.cand = make([]*backend.Machine, 0, len(c.Machines))
	g.weights = make([]float64, 0, len(c.Machines))
	return g
}

// setMonth moves the generator to the month [from, next).
func (g *generator) setMonth(from, next time.Time) {
	g.from = from
	g.span = float64(next.Sub(from))
	h, m, s := from.Clock()
	g.fromNs = int64(((h*60+m)*60+s))*int64(time.Second) + int64(from.Nanosecond())
	g.fromDay = int64(from.Weekday())
	for i := range g.fleet {
		f := &g.fleet[i]
		// Sub saturates, which keeps every comparison with an offset
		// inside the month exact.
		f.on, f.off = f.m.Online.Sub(from), time.Duration(math.MaxInt64)
		if !f.m.Retired.IsZero() {
			f.off = f.m.Retired.Sub(from)
		}
	}
}

// jobKey is one kept job of the month: its submission offset and its
// generation index.
type jobKey struct {
	at  time.Duration
	idx int
}

// sortKeys orders keys by offset and, among equal offsets, by
// generation index, a total order: an LSD radix sort over the offsets'
// bytes, which is stable, from keys in generation order. tmp must be as
// long as keys; the sorted keys are in one of the two.
func sortKeys(keys, tmp []jobKey) []jobKey {
	var bits uint64
	for _, k := range keys {
		bits |= uint64(k.at)
	}
	for shift := 0; shift < 64 && bits>>shift != 0; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[uint64(k.at)>>shift&0xff]++
		}
		pos := 0
		for d, n := range start {
			start[d], pos = pos, pos+n
		}
		for _, k := range keys {
			d := uint64(k.at) >> shift & 0xff
			tmp[start[d]] = k
			start[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Generate produces the study job stream, sorted by submission time.
func Generate(cfg Config) []*cloud.JobSpec {
	c := cfg.withDefaults()
	if !c.Start.Before(c.End) {
		return nil
	}
	g := newGenerator(c)
	r := g.r

	months := monthsBetween(c.Start, c.End)
	weights := make([]float64, len(months))
	total := 0.0
	for i := range months {
		weights[i] = math.Exp(c.GrowthPerMonth * float64(i))
		total += weights[i]
	}
	slabs := make([][]cloud.JobSpec, 0, len(months))
	var keys, tmp []jobKey
	kept := 0
	for i, m := range months {
		expected := float64(c.TotalJobs) * weights[i] / total
		n := stats.Poisson(r, expected)
		// progress in [0,1] tracks how late in the study we are; job
		// shapes grow with it.
		progress := float64(i) / math.Max(float64(len(months)-1), 1)
		// A month that began before the window is drawn from the
		// window's start.
		from := m
		if c.Start.After(m) {
			from = c.Start.UTC()
		}
		next := m.AddDate(0, 1, 0)
		if next.After(c.End) {
			next = c.End
		}
		g.setMonth(from, next)
		slab := make([]cloud.JobSpec, n)
		keys = slices.Grow(keys[:0], n)
		for j := 0; j < n; j++ {
			at := g.randomOffset()
			u := g.users[r.Intn(len(g.users))]
			if g.makeJob(&slab[len(keys)], u, at, progress) {
				keys = append(keys, jobKey{at, len(keys)})
			}
		}
		// The months do not overlap, so ordering each one orders the
		// stream.
		tmp = slices.Grow(tmp[:0], len(keys))[:len(keys)]
		permute(slab, sortKeys(keys, tmp))
		if len(keys) < n {
			// Pin no slot a rejected job left empty.
			slab = append([]cloud.JobSpec(nil), slab[:len(keys)]...)
		}
		slabs = append(slabs, slab)
		kept += len(slab)
	}
	specs := make([]*cloud.JobSpec, 0, kept)
	for _, slab := range slabs {
		for i := range slab {
			specs = append(specs, &slab[i])
		}
	}
	return specs
}

// permute reorders s[:len(keys)] so that s[k] holds what s[keys[k].idx]
// held, following each cycle of the permutation once. It consumes the
// keys' indices.
func permute(s []cloud.JobSpec, keys []jobKey) {
	for k := range keys {
		if keys[k].idx < 0 {
			continue // moved by an earlier cycle
		}
		first := s[k]
		for j := k; ; {
			src := keys[j].idx
			keys[j].idx = -1
			if src == k {
				s[j] = first
				break
			}
			s[j] = s[src]
			j = src
		}
	}
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

// randomOffset picks a submission instant inside the current month, as
// an offset from its first instant, biased toward weekday working
// hours.
func (g *generator) randomOffset() time.Duration {
	for attempt := 0; attempt < 8; attempt++ {
		at := time.Duration(g.r.Float64() * g.span)
		// Accept working-hours weekday times always; off-hours with
		// lower probability.
		accept := 0.35
		if g.workingHours(at) {
			accept = 1.0
		}
		if g.r.Float64() < accept {
			return at
		}
	}
	return time.Duration(g.r.Float64() * g.span)
}

// workingHours reports whether the instant at the offset falls on a
// weekday between 08:00 and 22:59 UTC.
func (g *generator) workingHours(at time.Duration) bool {
	const day = int64(24 * time.Hour)
	ns := g.fromNs + int64(at)
	wd := (g.fromDay + ns/day) % 7
	h := ns % day / int64(time.Hour)
	return wd != int64(time.Saturday) && wd != int64(time.Sunday) && h >= 8 && h <= 22
}

// makeJob fills s with one job submitted at the offset, or reports
// false when no machine fits.
func (g *generator) makeJob(s *cloud.JobSpec, u *user, at time.Duration, progress float64) bool {
	r := g.r
	kind := pickKind(r, u)
	width := pickWidth(r, progress)
	machine := g.pickMachine(u, at, width)
	if machine == nil {
		return false
	}
	width = max(min(width, machine.NumQubits()), 1)
	t := g.cache.get(kind, max(width, 2), r)
	batch := pickBatch(r, u, progress)
	shots := pickShots(r, progress)
	// Aggregate batch-level features with mild per-circuit variation.
	varf := 0.85 + 0.3*r.Float64()
	*s = cloud.JobSpec{
		SubmitTime:   g.from.Add(at),
		User:         u.name,
		Machine:      machine.Name,
		BatchSize:    batch,
		Shots:        shots,
		CircuitName:  t.name,
		Width:        t.m.Width,
		TotalDepth:   int(float64(t.m.Depth*batch) * varf),
		TotalGateOps: int(float64(t.m.GateOps*batch) * varf),
		CXTotal:      int(float64(t.m.CXCount*batch) * varf),
		MemSlots:     t.m.Width,
		PatienceSec:  patience.Sample(r),
		Privileged:   u.privileged,
	}
	return true
}

//qcloud:noalloc
func pickKind(r *rand.Rand, u *user) circuitKind {
	// Favorite family gets extra weight.
	w := [numKinds]float64{2, 2, 2.5, 1.5, 1.5, 1}
	w[u.famBias] += 2.5
	return circuitKind(stats.WeightedChoice(r, w[:]))
}

// pickWidth draws a circuit width: NISQ-era circuits are small, with
// the tail growing as the study progresses.
//
//qcloud:noalloc
func pickWidth(r *rand.Rand, progress float64) int {
	base := &stats.LogNormal{Mu: 1.1 + 0.5*progress, Sigma: 0.45}
	return int(stats.Clamp(base.Sample(r), 2, maxWidth))
}

// pickBatch draws the circuits-per-job batch size (Fig 11's 1-900
// spread). Disciplined users and later periods batch more.
//
//qcloud:noalloc
func pickBatch(r *rand.Rand, u *user, progress float64) int {
	mu := 1.8 + 2.6*u.batchDiscipline + 1.7*progress
	b := int(stats.Clamp((&stats.LogNormal{Mu: mu, Sigma: 1.0}).Sample(r), 1, 900))
	// A slice of disciplined users max the batch out entirely.
	if u.batchDiscipline > 0.85 && r.Float64() < 0.25 {
		b = 900
	}
	return b
}

// shotPresets are IBM's per-circuit shot presets, the last one the cap.
var shotPresets = [...]int{1024, 4096, 8192}

// pickShots draws the per-circuit shot count from the IBM presets,
// capped at 8192.
//
//qcloud:noalloc
func pickShots(r *rand.Rand, progress float64) int {
	w := [len(shotPresets)]float64{0.30 - 0.15*progress, 0.30, 0.40 + 0.15*progress}
	return shotPresets[stats.WeightedChoice(r, w[:])]
}

// pickMachine implements the user machine-selection heuristic: among
// machines online at the offset with enough qubits, weight by
// popularity; privileged users triple the weight of private machines,
// public users can only use public ones.
//
//qcloud:noalloc
func (g *generator) pickMachine(u *user, at time.Duration, width int) *backend.Machine {
	g.cand, g.weights = g.cand[:0], g.weights[:0]
	for i := range g.fleet {
		f := &g.fleet[i]
		if at < f.on || at >= f.off || f.qubits < width || !f.public && !u.privileged {
			continue
		}
		w := f.wPub
		if u.privileged {
			w = f.wPriv
		}
		g.cand = append(g.cand, f.m)
		g.weights = append(g.weights, w)
	}
	if len(g.cand) == 0 {
		return nil
	}
	return g.cand[stats.WeightedChoice(g.r, g.weights)]
}
