// Stdlib-identical RNG source.
//
// Every deterministic package in the repository draws from the stream
// rand.NewSource(seed) produces: qsim's per-shot streams (the kept
// reference engine draws from exactly that generator) and cloud's
// per-machine streams (golden trace hashes and checkpoint draw counts
// pin them). Source reproduces that stream bit for bit, so callers may
// only produce it faster, never change it. It differs from the stdlib
// source in three ways that are invisible in the output:
//
//   - it is a concrete, exported type, so a wrapper can hold it by
//     value and every draw is a direct (inlinable) call instead of a
//     second dynamic dispatch through rand.Source64;
//   - the seeding LCG reduces mod the Mersenne prime 2³¹-1 by folding
//     (v & p) + (v >> 31) — two adds and a compare instead of a
//     division, ~4x faster per step (profiling the Fig 7 trajectory
//     sweep showed ~3/4 of per-shot wall time inside the stdlib Seed);
//   - the stdlib's unexported rngCooked seeding table is recovered
//     once at init from the public API (see recoverCooked), so no
//     internal state is copied and any upstream change to the
//     generator would be caught by the stream-equality test instead of
//     silently diverging.
//
// Everything above the Source64 interface (Float64, Intn, ExpFloat64,
// NormFloat64) is the stdlib's own rand.Rand mapping, so derived draws
// are unchanged by construction.
package stats

import "math/rand"

const (
	lfLen    = 607       // lagged-Fibonacci register length
	lfTap    = 273       // feedback tap distance
	lfMask   = 1<<63 - 1 // Int63 output mask
	int31max = 1<<31 - 1 // the Mersenne prime 2³¹-1 of the seeding LCG
)

// lfCooked is the recovered seeding table (stdlib rngCooked).
var lfCooked = recoverCooked()

// lfMul3 is 48271³ mod 2³¹-1: the three-step jump of the seeding LCG,
// letting Seed run three independent strided lanes instead of one
// serial chain of 3·607 dependent multiplies.
var lfMul3 = uint64(48271) * 48271 % int31max * 48271 % int31max

// lfSeedrand advances the seeding LCG: (48271·x) mod 2³¹-1, reduced by
// Mersenne folding instead of division. The product fits 47 bits, so
// one fold plus one conditional subtract lands in [0, 2³¹-2], exactly
// as the stdlib's Schrage-method seedrand produces (x is never 0).
//
//qcloud:noalloc
func lfSeedrand(x int32) int32 {
	v := uint64(x) * 48271
	v = (v & int31max) + (v >> 31)
	if v >= int31max {
		v -= int31max
	}
	return int32(v)
}

// Source is the stdlib-identical additive lagged-Fibonacci generator.
// It implements rand.Source64. The zero value is unseeded (it yields
// zeros); Seed it before use.
type Source struct {
	vec       [lfLen]int64
	tap, feed int
}

// lfStep advances one seeding lane by an arbitrary multiplier mod
// 2³¹-1 (x, mul < 2³¹, so the product fits 62 bits and two folds plus
// a conditional subtract reduce it exactly).
//
//qcloud:noalloc
func lfStep(x, mul uint64) uint64 {
	v := x * mul
	v = (v & int31max) + (v >> 31)
	v = (v & int31max) + (v >> 31)
	if v >= int31max {
		v -= int31max
	}
	return v
}

// Seed produces exactly the register state rand.NewSource(seed) has:
// same seed reduction, same 20-step warm-up, same per-slot 64-bit
// assembly from three consecutive LCG values, same cooked-table XOR.
// Slot i consumes chain values x_{3i+1..3i+3}, so the fill runs as
// three strided lanes stepped by 48271³ — independent dependency
// chains the CPU can overlap — instead of 3·607 serial multiplies.
//
//qcloud:noalloc
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	seed = seed % int31max
	if seed < 0 {
		seed += int31max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < 0; i++ {
		x = lfSeedrand(x)
	}
	a := lfStep(uint64(x), 48271)
	b := lfStep(a, 48271)
	c := lfStep(b, 48271)
	for i := 0; i < lfLen; i++ {
		s.vec[i] = int64(a<<40 ^ b<<20 ^ c ^ uint64(lfCooked[i]))
		a = lfStep(a, lfMul3)
		b = lfStep(b, lfMul3)
		c = lfStep(c, lfMul3)
	}
}

// Uint64 advances the generator one step. It is small enough to
// inline, so a wrapper holding a Source by value pays no call for it.
//
//qcloud:noalloc
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 advances the generator one step, as Uint64 does.
//
//qcloud:noalloc
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & lfMask)
}

// recoverCooked reconstructs the stdlib's unexported seeding table from
// observable output. Seeding with any known seed sets
// vec0[i] = u_i ^ cooked[i], where the u_i chain is the public seeding
// algorithm (reproduced above). The generator is additive with taps
// (607, 273): draw k computes out_k = vec[feed_k] + vec[tap_k] and
// stores the sum at feed_k. Within the first 607 draws every register
// slot is written exactly once, and:
//
//   - for draws 273..606 the tap slot was itself written exactly 273
//     draws earlier, so vec0[feed_k] = out_k - out_{k-273};
//   - for draws 0..272 the tap slot is still original — and is one of
//     the slots the first phase just recovered — so
//     vec0[feed_k] = out_k - vec0[tap_k].
//
// Together they yield all of vec0, and cooked[i] = vec0[i] ^ u_i.
// Integer addition wraps identically for int64 and uint64, so the
// subtractions invert the sums exactly.
func recoverCooked() [lfLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	outs := make([]int64, lfLen)
	for k := range outs {
		outs[k] = int64(src.Uint64())
	}
	taps := make([]int, lfLen)
	feeds := make([]int, lfLen)
	tap, feed := 0, lfLen-lfTap
	for k := 0; k < lfLen; k++ {
		tap--
		if tap < 0 {
			tap += lfLen
		}
		feed--
		if feed < 0 {
			feed += lfLen
		}
		taps[k], feeds[k] = tap, feed
	}
	var vec0 [lfLen]int64
	for k := lfTap; k < lfLen; k++ {
		vec0[feeds[k]] = outs[k] - outs[k-lfTap]
	}
	for k := 0; k < lfTap; k++ {
		vec0[feeds[k]] = outs[k] - vec0[taps[k]]
	}
	// Replay the seeding chain for seed 1 to strip the u_i layer.
	var cooked [lfLen]int64
	x := int32(1)
	for i := -20; i < 0; i++ {
		x = lfSeedrand(x)
	}
	for i := 0; i < lfLen; i++ {
		x = lfSeedrand(x)
		u := uint64(x) << 40
		x = lfSeedrand(x)
		u ^= uint64(x) << 20
		x = lfSeedrand(x)
		u ^= uint64(x)
		cooked[i] = int64(u ^ uint64(vec0[i]))
	}
	return cooked
}
