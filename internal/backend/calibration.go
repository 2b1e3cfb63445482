package backend

import (
	"math"
	"math/rand"
	"time"
)

// Calibration is one calibrated snapshot of a machine's error
// characteristics: per-qubit coherence and readout, per-edge two-qubit
// error. The paper's §IV-B cites coefficients of variation of 30-40%
// for T1/T2 and ~75% for two-qubit error across a machine, with >2x
// day-to-day drift; the generator below is tuned to those targets.
type Calibration struct {
	// Epoch is the calibration cycle index (days since the machine's
	// first calibration).
	Epoch int
	// Time is when this calibration was performed.
	Time time.Time
	// T1 and T2 are per-qubit coherence times in microseconds.
	T1, T2 []float64
	// Err1Q is the per-qubit single-qubit gate error probability.
	Err1Q []float64
	// ErrRO is the per-qubit readout error probability.
	ErrRO []float64
	// ErrCX maps coupler edges (a<b) to two-qubit error probability.
	ErrCX map[[2]int]float64
	// meanCX is the mean of ErrCX, summed once at generation in the
	// topology's edge order: a sum over the map would add the same
	// floats in a different order from call to call.
	meanCX float64
}

// CXError returns the calibrated two-qubit error for the coupler (a,b)
// in either order, or def if the pair is not coupled.
func (c *Calibration) CXError(a, b int, def float64) float64 {
	if a > b {
		a, b = b, a
	}
	if e, ok := c.ErrCX[[2]int{a, b}]; ok {
		return e
	}
	return def
}

// MeanCXError returns the average two-qubit error across all couplers
// (0 when the machine has none).
func (c *Calibration) MeanCXError() float64 { return c.meanCX }

// CalibModel holds the machine-level parameters the calibration
// generator draws from.
type CalibModel struct {
	// BaseT1Us / BaseT2Us are the machine-median coherence times (µs).
	BaseT1Us, BaseT2Us float64
	// Base1QErr / BaseCXErr / BaseROErr are machine-median error rates.
	Base1QErr, BaseCXErr, BaseROErr float64
	// SpatialSigma* are the log-space sigmas for per-qubit/per-edge
	// spread (CoV ≈ sqrt(exp(σ²)-1): σ=0.38 → ~40%, σ=0.65 → ~73%).
	SpatialSigmaT, SpatialSigmaCX float64
	// DailySigma is the log-space sigma of the day-to-day multiplier
	// applied to the whole machine.
	DailySigma float64
}

// DefaultCalibModel returns the calibration model for a device of the
// given quality tier, where tier 0 is the best (newest) hardware and
// tier 2 the noisiest.
func DefaultCalibModel(tier int) CalibModel {
	m := CalibModel{
		BaseT1Us: 90, BaseT2Us: 75,
		Base1QErr: 4e-4, BaseCXErr: 1.1e-2, BaseROErr: 2.2e-2,
		SpatialSigmaT: 0.38, SpatialSigmaCX: 0.65,
		DailySigma: 0.30,
	}
	switch {
	case tier <= 0:
	case tier == 1:
		m.BaseT1Us, m.BaseT2Us = 65, 55
		m.Base1QErr, m.BaseCXErr, m.BaseROErr = 8e-4, 1.6e-2, 3.5e-2
	default:
		m.BaseT1Us, m.BaseT2Us = 45, 35
		m.Base1QErr, m.BaseCXErr, m.BaseROErr = 1.6e-3, 2.6e-2, 6e-2
	}
	return m
}

// GenCalibration produces the deterministic calibration snapshot for
// the given machine seed and epoch (calibration day). The same
// (seed, epoch) always yields the same snapshot, which is what lets the
// cloud simulator and the compiler agree on "the machine state at
// time t".
func GenCalibration(t *Topology, model CalibModel, seed int64, epoch int, at time.Time) *Calibration {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
	c := &Calibration{
		Epoch: epoch,
		Time:  at,
		T1:    make([]float64, t.N),
		T2:    make([]float64, t.N),
		Err1Q: make([]float64, t.N),
		ErrRO: make([]float64, t.N),
		ErrCX: make(map[[2]int]float64, len(t.Edges)),
	}
	// Day-to-day machine-wide multiplier (the ">2x day-to-day variation"
	// in error averages the paper cites).
	dayErrMult := math.Exp(r.NormFloat64() * model.DailySigma)
	dayCohMult := math.Exp(r.NormFloat64() * model.DailySigma * 0.5)
	for q := 0; q < t.N; q++ {
		c.T1[q] = model.BaseT1Us * dayCohMult * math.Exp(r.NormFloat64()*model.SpatialSigmaT)
		// T2 <= 2*T1 physically; clamp after sampling.
		c.T2[q] = math.Min(
			model.BaseT2Us*dayCohMult*math.Exp(r.NormFloat64()*model.SpatialSigmaT),
			2*c.T1[q])
		c.Err1Q[q] = clampProb(model.Base1QErr * dayErrMult * math.Exp(r.NormFloat64()*model.SpatialSigmaCX*0.6))
		c.ErrRO[q] = clampProb(model.BaseROErr * dayErrMult * math.Exp(r.NormFloat64()*model.SpatialSigmaCX*0.5))
	}
	sum := 0.0
	for _, e := range t.Edges {
		c.ErrCX[e] = clampProb(model.BaseCXErr * dayErrMult * math.Exp(r.NormFloat64()*model.SpatialSigmaCX))
		sum += c.ErrCX[e]
	}
	if len(t.Edges) > 0 {
		c.meanCX = sum / float64(len(t.Edges))
	}
	return c
}

// clampProb keeps a sampled error rate inside (1e-6, 0.5).
func clampProb(p float64) float64 {
	if p < 1e-6 {
		return 1e-6
	}
	if p > 0.5 {
		return 0.5
	}
	return p
}

// DriftedCXError applies intra-epoch drift to a calibrated edge error:
// error grows (or shrinks) smoothly with hours since calibration, with
// a deterministic per-edge phase. This models the staleness effect
// behind the paper's calibration-crossover discussion (Fig 12).
func DriftedCXError(cal *Calibration, a, b int, hoursSince float64, def float64) float64 {
	base := cal.CXError(a, b, def)
	if a > b {
		a, b = b, a
	}
	phase := float64((a*31+b*17+cal.Epoch*7)%100) / 100 * 2 * math.Pi
	drift := 1 + 0.15*(hoursSince/24)*math.Sin(phase+hoursSince/6)
	if drift < 0.5 {
		drift = 0.5
	}
	return clampProb(base * drift)
}
