package cloud

import (
	"math"
	"math/rand"

	"qcloud/internal/backend"
	"qcloud/internal/stats"
)

// BackgroundModel describes the load generated by the rest of the user
// population: everyone who is not part of the study but competes for
// the same machines. Its parameters shape the queuing-time and
// pending-job distributions (Figs 3, 9, 10).
type BackgroundModel struct {
	// Users is the size of the rotating background user pool per
	// machine (fair-share keys).
	Users int
	// PublicUtil / PrivateUtil are the peak target utilizations for
	// public and privileged machines (scaled by machine popularity).
	PublicUtil, PrivateUtil float64
	// RampFraction is the fraction of the machine's online window over
	// which demand ramps from RampFloor to full target (demand growth).
	RampFraction float64
	// RampFloor is the initial demand multiplier.
	RampFloor float64
	// BatchDist and ShotsDist sample background job shapes.
	BatchDist stats.Sampler
	ShotsDist stats.Sampler
	// MeanPatienceSec is the mean background-user patience.
	MeanPatienceSec float64
}

// DefaultBackground returns the tuned background model: mostly small
// batches, shots concentrated at the 1024/4096/8192 presets, public
// machines near saturation with diurnal bursts.
func DefaultBackground() *BackgroundModel {
	return &BackgroundModel{
		Users:        1200,
		PublicUtil:   0.85,
		PrivateUtil:  0.50,
		RampFraction: 0.5,
		RampFloor:    0.35,
		BatchDist: stats.NewMixture(
			[]float64{0.55, 0.28, 0.17},
			[]stats.Sampler{
				&stats.Clamped{S: &stats.LogNormal{Mu: 0.8, Sigma: 0.9}, Lo: 1, Hi: 40},
				&stats.Clamped{S: &stats.LogNormal{Mu: 3.6, Sigma: 0.7}, Lo: 10, Hi: 300},
				&stats.Clamped{S: &stats.LogNormal{Mu: 5.8, Sigma: 0.5}, Lo: 100, Hi: 900},
			},
		),
		ShotsDist: stats.NewMixture(
			[]float64{0.35, 0.40, 0.25},
			[]stats.Sampler{
				&stats.Uniform{Lo: 1000, Hi: 1048},
				&stats.Uniform{Lo: 4072, Hi: 4120},
				&stats.Uniform{Lo: 8168, Hi: 8216},
			},
		),
		MeanPatienceSec: 3 * 24 * 3600,
	}
}

// MeanExecSeconds estimates the mean background-job service time on m
// by sampling the job-shape mixture with a machine-specific probe seed.
func (b *BackgroundModel) MeanExecSeconds(m *backend.Machine) float64 {
	probe := rand.New(rand.NewSource(m.Seed + 5))
	total := 0.0
	const n = 400
	for i := 0; i < n; i++ {
		batch := int(b.BatchDist.Sample(probe))
		shots := int(b.ShotsDist.Sample(probe))
		total += m.ExecSeconds(batch, shots, batch*30)
	}
	return total / n
}

// targetUtil returns the machine's peak-demand utilization target.
func (b *BackgroundModel) targetUtil(m *backend.Machine) float64 {
	if m.Simulator {
		// The simulator backend has effectively elastic capacity.
		return 0.25
	}
	if m.Public {
		u := b.PublicUtil * (0.85 + 0.04*m.Popularity)
		return math.Min(u, 0.98)
	}
	return math.Min(b.PrivateUtil*(0.5+0.45*m.Popularity), 0.97)
}

// diurnalFactor modulates arrival rate over the day and week: working
// hours burst, nights and weekends drain. Mean over a week is ~1.
func diurnalFactor(secIntoSim float64) float64 {
	hourOfDay := math.Mod(secIntoSim/3600, 24)
	dayOfWeek := int(math.Mod(secIntoSim/86400, 7))
	f := 0.45
	if hourOfDay >= 13 && hourOfDay < 23 {
		f = 1.9 // global working-hours burst
	} else if hourOfDay >= 7 && hourOfDay < 13 {
		f = 1.0
	}
	if dayOfWeek >= 5 {
		f *= 0.7
	}
	return f
}

// backgroundStream lazily generates background arrivals for one
// machine as a piecewise-constant-rate Poisson process.
type backgroundStream struct {
	model    *BackgroundModel
	machine  *backend.Machine
	r        *rand.Rand
	startSec float64
	endSec   float64
	// The demand ramp runs over the machine's absolute lifetime (its
	// online date, rampStartSec, to the end of the study), so demand
	// growth does not depend on the simulated window. rampSpan is that
	// lifetime and rampFrac the model's RampFraction, both clamped away
	// from zero once: they are rateAt's denominators.
	rampStartSec, rampSpan, rampFrac float64
	// rampDone records that the ramp saturated; rampSat is the value it
	// saturated at (see ramp).
	rampDone bool
	rampSat  float64
	meanExec float64
	peakRate float64 // arrivals/sec at demand multiplier 1, diurnal 1
	// surges are episodes of elevated demand (conference deadlines,
	// course assignments): [start, end, factor] triples. They produce
	// the day-plus queuing tail of Fig 3.
	surges    [][3]float64
	surgeIdx  int
	nextAt    float64
	exhausted bool
	// segFactor is diurnalFactor over [segStart, segEnd), the interior
	// of one hour-of-day bucket (see diurnal). The zero value is empty.
	segStart, segEnd, segFactor float64
}

// diurnalGuardSec keeps the cached segment this far inside its bucket:
// five orders of magnitude above the rounding error of diurnalFactor's
// divisions at two years of sim-seconds (~1e-8 s), so a query whose
// float bucket decision could differ from the exact one is never
// answered from the cache.
const diurnalGuardSec = 1e-3

// diurnalBuckets are the hour-of-day boundaries diurnalFactor switches
// on; the day-of-week factor switches at hour 0, which is one of them.
var diurnalBuckets = [...]float64{0, 7, 13, 23, 24}

// diurnal is diurnalFactor(t) without its two software fmods for every
// query strictly inside a bucket: the factor is constant there, so it
// is computed once per bucket (by diurnalFactor itself) and reused.
// Queries within diurnalGuardSec of a boundary fall outside every
// cached segment and go through diurnalFactor, which keeps the bucket
// decision bit-exact.
//
//qcloud:noalloc
func (bs *backgroundStream) diurnal(t float64) float64 {
	if t >= bs.segStart && t < bs.segEnd {
		return bs.segFactor
	}
	f := diurnalFactor(t)
	day := math.Floor(t/86400) * 86400
	hour := (t - day) / 3600
	for i := 1; i < len(diurnalBuckets); i++ {
		if hour < diurnalBuckets[i] {
			start := day + diurnalBuckets[i-1]*3600 + diurnalGuardSec
			end := day + diurnalBuckets[i]*3600 - diurnalGuardSec
			if t >= start && t < end {
				bs.segStart, bs.segEnd, bs.segFactor = start, end, f
			}
			break
		}
	}
	return f
}

func newBackgroundStream(model *BackgroundModel, m *backend.Machine, r *rand.Rand, startSec, endSec, rampStartSec, rampEndSec float64) *backgroundStream {
	bs := &backgroundStream{
		model: model, machine: m, r: r,
		startSec: startSec, endSec: endSec,
		rampStartSec: rampStartSec,
		rampSpan:     math.Max(rampEndSec-rampStartSec, 1),
		rampFrac:     math.Max(model.RampFraction, 1e-9),
	}
	bs.meanExec = model.MeanExecSeconds(m)
	bs.peakRate = model.targetUtil(m) / bs.meanExec
	// Surge episodes, seeded per machine: mean 55-day spacing, 3-8 day
	// duration, 1.4-1.9x demand.
	sr := rand.New(rand.NewSource(m.Seed*131 + 9))
	t := startSec + sr.ExpFloat64()*55*86400
	for t < endSec {
		dur := (3 + 5*sr.Float64()) * 86400
		factor := 1.4 + 0.5*sr.Float64()
		bs.surges = append(bs.surges, [3]float64{t, t + dur, factor})
		t += dur + sr.ExpFloat64()*55*86400
	}
	bs.nextAt = startSec
	bs.advance()
	return bs
}

// surgeFactor returns the demand multiplier at time t. Queries arrive
// in nondecreasing time order, so a moving index keeps this O(1).
func (bs *backgroundStream) surgeFactor(t float64) float64 {
	for bs.surgeIdx < len(bs.surges) && t >= bs.surges[bs.surgeIdx][1] {
		bs.surgeIdx++
	}
	if bs.surgeIdx < len(bs.surges) && t >= bs.surges[bs.surgeIdx][0] {
		return bs.surges[bs.surgeIdx][2]
	}
	return 1
}

// rateAt returns the instantaneous arrival rate at sim-second t.
//
//qcloud:noalloc
func (bs *backgroundStream) rateAt(t float64) float64 {
	return bs.peakRate * bs.ramp(t) * bs.diurnal(t) * bs.surgeFactor(t)
}

// ramp is the demand multiplier RampFloor + (1-RampFloor)·min(1,
// max(frac, 0)/rampFrac) at sim-second t. Plain compares replace
// math.Min/Max: exact for these finite, non-NaN operands, and x <= 0
// maps -0 to +0 as math.Max does. Queries only move forward and
// correctly rounded subtraction and division are monotone, so once the
// clamp saturates it stays saturated: the value the expression
// produced then is cached and returned for every later query.
//
//qcloud:noalloc
func (bs *backgroundStream) ramp(t float64) float64 {
	if bs.rampDone {
		return bs.rampSat
	}
	x := (t - bs.rampStartSec) / bs.rampSpan
	if x <= 0 {
		x = 0
	}
	x /= bs.rampFrac
	saturated := x >= 1
	if saturated {
		x = 1
	}
	floor := bs.model.RampFloor
	r := floor + (1-floor)*x
	if saturated {
		bs.rampDone, bs.rampSat = true, r
	}
	return r
}

// advance samples the next arrival time by thinning against the peak
// possible rate.
//
//qcloud:noalloc
func (bs *backgroundStream) advance() {
	const maxFactor = 1.9 * 1.9 // max diurnal factor x max surge factor
	lambdaMax := bs.peakRate * maxFactor
	if lambdaMax <= 0 {
		bs.exhausted = true
		return
	}
	t := bs.nextAt
	for {
		t += bs.r.ExpFloat64() / lambdaMax
		if t >= bs.endSec {
			bs.exhausted = true
			return
		}
		if bs.r.Float64() <= bs.rateAt(t)/lambdaMax {
			bs.nextAt = t
			return
		}
	}
}

// peek returns the next arrival time without consuming it.
func (bs *backgroundStream) peek() (float64, bool) {
	if bs.exhausted {
		return 0, false
	}
	return bs.nextAt, true
}

// next consumes the current arrival and schedules the following one.
func (bs *backgroundStream) next() {
	bs.advance()
}

// sampleExecSeconds draws a background job's execution time.
func (bs *backgroundStream) sampleExecSeconds(r *rand.Rand) float64 {
	batch := int(bs.model.BatchDist.Sample(r))
	shots := int(bs.model.ShotsDist.Sample(r))
	return bs.machine.ExecSeconds(batch, shots, batch*30) * (0.9 + 0.2*r.Float64())
}

// samplePatience draws how long a background user waits before
// cancelling.
func (bs *backgroundStream) samplePatience(r *rand.Rand) float64 {
	return r.ExpFloat64() * bs.model.MeanPatienceSec
}
