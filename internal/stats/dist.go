package stats

import (
	"math"
	"math/rand"
)

// Sampler draws values from a distribution using the provided source.
// All workload-model distributions in qcloud implement Sampler so that
// generators can be composed and swapped in tests. The distributions
// below implement it on pointer receivers: an interface holding a
// pointer calls the method directly, where a value receiver behind an
// interface pays a wrapper that copies the struct on every draw.
type Sampler interface {
	Sample(r *rand.Rand) float64
}

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Sampler.
func (u *Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// LogNormal samples from a log-normal distribution parameterized by the
// mean and stddev of the underlying normal. Queuing and service-time
// distributions in the trace model are log-normal: the paper's Fig 3
// spans five decades, which a log-normal tail reproduces.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Sampler.
func (l *LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Poisson draws a Poisson-distributed count with the given mean using
// Knuth's method for small means and a normal approximation above 50.
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		// Normal approximation with continuity correction.
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Clamped wraps a Sampler and clamps its output to [Lo, Hi].
type Clamped struct {
	S      Sampler
	Lo, Hi float64
}

// Sample implements Sampler.
func (c *Clamped) Sample(r *rand.Rand) float64 {
	return Clamp(c.S.Sample(r), c.Lo, c.Hi)
}

// Clamp limits x to [lo, hi], as Clamped does to its sampler's draws.
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Mixture samples from one of several component distributions chosen
// with the given weights. Weights need not be normalized.
type Mixture struct {
	weights    []float64
	components []Sampler
	total      float64 // the weights' positive sum, as WeightedChoice sums it
}

// NewMixture returns a Mixture with its weight total computed once.
// The total is summed exactly as WeightedChoice sums it, so every draw
// picks the index WeightedChoice would. The slices are kept, not
// copied: they must not change afterwards.
func NewMixture(weights []float64, components []Sampler) *Mixture {
	return &Mixture{weights: weights, components: components, total: positiveSum(weights)}
}

// Sample implements Sampler.
func (m *Mixture) Sample(r *rand.Rand) float64 {
	return m.components[weightedIndex(r, m.weights, m.total)].Sample(r)
}

// WeightedChoice returns an index drawn proportionally to weights.
// All-zero or empty weights return 0.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	return weightedIndex(r, weights, positiveSum(weights))
}

// positiveSum is the sum of the positive weights, in index order.
func positiveSum(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// weightedIndex draws WeightedChoice's index given the weights'
// positive sum.
func weightedIndex(r *rand.Rand, weights []float64, total float64) int {
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
