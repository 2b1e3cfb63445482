package qsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// trajectoryCircuit builds a circuit that forces the trajectory engine
// even without noise (mid-circuit measurement).
func trajectoryCircuit() *circuit.Circuit {
	c := circuit.New("traj", 3)
	c.H(0).CX(0, 1).Measure(0, 0)
	c.H(0).CX(0, 2).Measure(0, 1).Measure(1, 2)
	return c
}

// TestParallelSerialCountsBitIdentical is the engine's determinism
// contract: for a fixed caller seed, Counts are bit-identical across
// worker counts (1, 2, NumCPU) on both the exact and trajectory paths,
// with and without noise.
func TestParallelSerialCountsBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		circ  *circuit.Circuit
		noise *NoiseModel
	}{
		{"exact-ghz", gens.GHZ(5), nil},
		{"trajectory-midmeasure", trajectoryCircuit(), nil},
		{"trajectory-noisy-ghz", gens.GHZ(4), UniformNoise(0.002, 0.05, 0.03)},
		{"trajectory-noisy-qft", gens.QFTBench(4), UniformNoise(0.001, 0.02, 0.02)},
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, tc := range cases {
		var want Counts
		for _, w := range workerCounts {
			r := rand.New(rand.NewSource(99))
			got, err := RunOpts(tc.circ, 700, tc.noise, r, Parallelism{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: counts differ between workers=1 and workers=%d:\n%v\nvs\n%v",
					tc.name, w, want, got)
			}
		}
	}
}

// TestKernelShardingMatchesSerial applies every pooled kernel to a
// state above the parallel threshold with serial and parallel workers
// and requires exactly equal amplitudes.
func TestKernelShardingMatchesSerial(t *testing.T) {
	const n = 15 // 2^15 amps, above kernelMinAmps
	build := func(workers int) *State {
		s, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
		for q := 0; q < n; q++ {
			s.Apply1Q(h, q)
		}
		s.ApplyCX(0, n-1)
		s.ApplyCZ(1, n-2)
		s.ApplyCPhase(2, n-3, 0.7)
		// CX, SWAP and CCX on low/high/adjacent/straddling bit
		// positions (CX in both control/target orders): the
		// block-iteration kernels clip differently when the bits are
		// below, at, or above the shard-chunk granularity.
		s.ApplyCX(n-1, 0)
		s.ApplyCX(0, 1)
		s.ApplyCX(1, 0)
		s.ApplyCX(n-2, n-1)
		s.ApplyCX(n-1, n-2)
		s.ApplyCX(3, n-4)
		s.ApplyCX(n-4, 3)
		s.ApplyCX(n-1, 2)
		s.ApplyCX(2, n-1)
		s.ApplySWAP(3, n-4)
		s.ApplySWAP(0, 1)
		s.ApplySWAP(n-2, n-1)
		s.ApplySWAP(n-1, 2)
		s.ApplyCCX(4, 5, n-5)
		s.ApplyCCX(0, 1, 2)
		s.ApplyCCX(n-1, 0, n-2)
		s.ApplyCCX(n-3, n-1, 1)
		// 2q block kernels, complex and real, both role orders.
		cxm, _ := circuit.GateMat4(circuit.NewGate(circuit.OpCX, []int{2, n - 2}), 2, n-2)
		s.Apply2Q(cxm, 2, n-2)
		u := circuit.Kron1Q(circuit.U3Mat(0.4, 1.2, -0.8), true).Mul(circuit.Kron1Q(circuit.U3Mat(1.1, 0.2, 0.9), false))
		s.Apply2Q(u, n-1, 0)
		s.Apply2Q(u, 1, n-3)
		return s
	}
	serial := build(1)
	for _, w := range []int{2, 3, runtime.NumCPU()} {
		parallel := build(w)
		for i := range serial.re {
			if serial.Amplitude(i) != parallel.Amplitude(i) {
				t.Fatalf("workers=%d: amplitude %d differs: %v vs %v",
					w, i, serial.Amplitude(i), parallel.Amplitude(i))
			}
		}
	}
}

// TestReductionsDeterministicAcrossWorkers checks that the chunked
// reductions (Norm, ProbOne, Probabilities) return bit-identical
// floats for any worker count on a large state.
func TestReductionsDeterministicAcrossWorkers(t *testing.T) {
	const n = 15
	mk := func(workers int) *State {
		s, _ := NewState(n)
		s.SetWorkers(workers)
		h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
		for q := 0; q < n; q++ {
			s.Apply1Q(h, q)
		}
		s.ApplyCPhase(0, 1, 1.1)
		return s
	}
	ref := mk(1)
	refNorm, refP1 := ref.Norm(), ref.ProbOne(3)
	refProbs := ref.Probabilities()
	for _, w := range []int{2, runtime.NumCPU()} {
		s := mk(w)
		if got := s.Norm(); got != refNorm {
			t.Fatalf("workers=%d: Norm %v != serial %v", w, got, refNorm)
		}
		if got := s.ProbOne(3); got != refP1 {
			t.Fatalf("workers=%d: ProbOne %v != serial %v", w, got, refP1)
		}
		for i, p := range s.Probabilities() {
			if p != refProbs[i] {
				t.Fatalf("workers=%d: Probabilities[%d] %v != %v", w, i, p, refProbs[i])
			}
		}
	}
}

// TestShotSeedStreamsDiffer guards the per-shot stream derivation: the
// same (base, shot) always maps to the same seed, and nearby shots get
// well-separated seeds.
func TestShotSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]int)
	for s := 0; s < 10000; s++ {
		seed := shotSeed(12345, s)
		if prev, dup := seen[seed]; dup {
			t.Fatalf("shots %d and %d collide on seed %d", prev, s, seed)
		}
		seen[seed] = s
	}
	if shotSeed(1, 5) != shotSeed(1, 5) {
		t.Fatal("shotSeed must be a pure function")
	}
	if shotSeed(1, 5) == shotSeed(2, 5) {
		t.Fatal("different bases should give different streams")
	}
}

// TestMostFrequentEmpty pins the empty-map contract: no sentinel, just
// the zero frequency.
func TestMostFrequentEmpty(t *testing.T) {
	var empty Counts
	best, n := empty.MostFrequent()
	if best != "" || n != 0 {
		t.Fatalf(`empty Counts MostFrequent = (%q, %d), want ("", 0)`, best, n)
	}
}
