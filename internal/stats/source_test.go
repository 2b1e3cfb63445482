package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesStdlib is Source's entire contract: bit-identical
// output to rand.NewSource for the same seed — raw Uint64/Int63 streams
// and every derived draw a deterministic package consumes (qsim's
// Float64 and Intn(3); cloud's Float64, ExpFloat64, NormFloat64 and
// Intn(1200)) — across positive, negative, zero and random seeds,
// including reseeding the same instance.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{1, 0, -1, 42, 1<<62 + 12345, -(1 << 40), int31max, int31max + 1}
	gen := rand.New(rand.NewSource(977))
	for s := 0; s < 40; s++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var fast Source
	fastRand := rand.New(&Source{})
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		fast.Seed(seed)
		for k := 0; k < 700; k++ {
			if got, want := fast.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, k, got, want)
			}
		}
		refRand := rand.New(rand.NewSource(seed))
		fastRand.Seed(seed)
		for k := 0; k < 600; k++ {
			// Floats compare by bits, integers exactly.
			var got, want uint64
			switch k % 7 {
			case 0:
				got, want = math.Float64bits(fastRand.Float64()), math.Float64bits(refRand.Float64())
			case 1:
				got, want = uint64(fastRand.Intn(3)), uint64(refRand.Intn(3))
			case 2:
				got, want = uint64(fastRand.Int63()), uint64(refRand.Int63())
			case 3:
				got, want = math.Float64bits(fastRand.ExpFloat64()), math.Float64bits(refRand.ExpFloat64())
			case 4:
				got, want = math.Float64bits(fastRand.NormFloat64()), math.Float64bits(refRand.NormFloat64())
			case 5:
				got, want = uint64(fastRand.Intn(1200)), uint64(refRand.Intn(1200))
			default:
				got, want = fastRand.Uint64(), refRand.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d draw %d (kind %d): %#x != stdlib %#x", seed, k, k%7, got, want)
			}
		}
	}
}

// TestSeedrandMatchesSchrage checks the Mersenne-fold reduction
// against the reference (48271·x) mod 2³¹-1 over boundary and random
// inputs.
func TestSeedrandMatchesSchrage(t *testing.T) {
	check := func(x int32) {
		want := int32((int64(x) * 48271) % int31max)
		if got := lfSeedrand(x); got != want {
			t.Fatalf("lfSeedrand(%d) = %d, want %d", x, got, want)
		}
	}
	for _, x := range []int32{1, 2, 89482311, int31max - 1, 44488, 48271} {
		check(x)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		check(int32(r.Intn(int31max-1)) + 1)
	}
}

// TestSourceNoAlloc pins the //qcloud:noalloc methods at zero
// allocations.
func TestSourceNoAlloc(t *testing.T) {
	var s Source
	var sink uint64
	if n := testing.AllocsPerRun(20, func() {
		s.Seed(7)
		sink += s.Uint64() + uint64(s.Int63())
	}); n != 0 {
		t.Fatalf("Source allocates %v per Seed+draw, want 0", n)
	}
	_ = sink
}

// BenchmarkSeedStdlib and BenchmarkSeedSource compare reseeding cost:
// the stdlib source's division-based warm-up vs the folded
// reimplementation.
func BenchmarkSeedStdlib(b *testing.B) {
	src := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

func BenchmarkSeedSource(b *testing.B) {
	var src Source
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}
