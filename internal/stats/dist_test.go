package stats

import (
	"math"
	"math/rand"
	"testing"
)

func sampleN(s Sampler, r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Sample(r)
	}
	return xs
}

func TestUniformRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := sampleN(&Uniform{Lo: 2, Hi: 5}, r, 10000)
	if Min(xs) < 2 || Max(xs) >= 5 {
		t.Fatalf("uniform out of range: [%v,%v]", Min(xs), Max(xs))
	}
	if !almostEqual(Mean(xs), 3.5, 0.05) {
		t.Fatalf("uniform mean = %v, want ~3.5", Mean(xs))
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := sampleN(&LogNormal{Mu: 1, Sigma: 2}, r, 10000)
	if Min(xs) <= 0 {
		t.Fatal("lognormal produced non-positive value")
	}
	// Median of lognormal is exp(mu).
	if med := Median(xs); !almostEqual(med, math.E, 0.2) {
		t.Fatalf("lognormal median = %v, want ~e", med)
	}
}

func TestPoissonMean(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0.5, 3, 20, 120} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(r, mean))
		}
		got := sum / float64(n)
		if !almostEqual(got, mean, mean*0.05+0.05) {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
	if Poisson(r, -1) != 0 || Poisson(r, 0) != 0 {
		t.Fatal("non-positive mean should produce 0")
	}
}

func TestClamped(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := &Clamped{S: &Uniform{Lo: -100, Hi: 100}, Lo: -1, Hi: 1}
	xs := sampleN(c, r, 1000)
	if Min(xs) < -1 || Max(xs) > 1 {
		t.Fatal("clamped out of range")
	}
}

func TestMixtureWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewMixture([]float64{9, 1}, []Sampler{&Uniform{0, 1}, &Uniform{100, 101}})
	xs := sampleN(m, r, 20000)
	frac := FractionAtLeast(xs, 50)
	if !almostEqual(frac, 0.1, 0.02) {
		t.Fatalf("mixture high-component fraction = %v, want ~0.1", frac)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	if WeightedChoice(r, nil) != 0 {
		t.Fatal("empty weights should return 0")
	}
	if WeightedChoice(r, []float64{0, 0}) != 0 {
		t.Fatal("all-zero weights should return 0")
	}
	if WeightedChoice(r, []float64{0, 5, 0}) != 1 {
		t.Fatal("single positive weight must always be chosen")
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, []float64{1, 2, 7})]++
	}
	fracs := []float64{0.1, 0.2, 0.7}
	for i, want := range fracs {
		got := float64(counts[i]) / float64(n)
		if !almostEqual(got, want, 0.02) {
			t.Fatalf("choice %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

// TestMixtureCachedTotalMatchesWeightedChoice pins NewMixture's cached
// total: its draws pick exactly WeightedChoice's index stream, and so
// leave the generator where WeightedChoice would. The weights are
// chosen so their float sum depends on summation order, and include a
// non-positive weight WeightedChoice skips.
func TestMixtureCachedTotalMatchesWeightedChoice(t *testing.T) {
	for _, weights := range [][]float64{
		{0.55, 0.28, 0.17},
		{0.35, 0.40, 0.25},
		{0.1, 0.2, 0.3, 1e-17, 0.4},
		{0.3, -1, 0, 0.7, 0.1},
		{1e16, 1, 1, 1},
	} {
		comps := make([]Sampler, len(weights))
		for i := range comps {
			comps[i] = &Uniform{Lo: float64(i), Hi: float64(i)}
		}
		m := NewMixture(weights, comps)
		sum := 0.0 // WeightedChoice's summation, in index order
		for _, w := range weights {
			if w > 0 {
				sum += w
			}
		}
		if m.total != sum {
			t.Fatalf("weights %v: cached total %v, WeightedChoice sums %v", weights, m.total, sum)
		}
		rm := rand.New(rand.NewSource(11))
		rw := rand.New(rand.NewSource(11))
		for k := 0; k < 5000; k++ {
			got := int(m.Sample(rm))
			want := WeightedChoice(rw, weights)
			rw.Float64() // the component's draw
			if got != want {
				t.Fatalf("weights %v draw %d: Mixture picked %d, WeightedChoice %d", weights, k, got, want)
			}
		}
		if rm.Uint64() != rw.Uint64() {
			t.Fatalf("weights %v: generators diverged", weights)
		}
	}
}
