//go:build amd64 && !amd64.v3

package qsim

import (
	"fmt"
	"math/rand"
	"testing"

	"qcloud/internal/circuit"
)

// TestAVX2RunsMatchGo is the run kernels' contract: with the assembly
// on, every sweep that has one leaves exactly the amplitudes its Go loop
// leaves — compared with ==, not a tolerance — for every qubit (complex
// and real 2x2; qubits 0 and 1 take the in-register kernels) and every
// ordered pair (complex 4x4, CX, SWAP, and a real 4x4, which the
// complex kernel takes where it runs), over the full index range and
// over shard ranges whose ends fall inside a four-lane run.
func TestAVX2RunsMatchGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host has no AVX2: the Go loops are the only path and there is nothing to compare")
	}
	t.Cleanup(func() { hasAVX2 = true })

	const n = 11
	r := rand.New(rand.NewSource(18))
	init, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range init.re {
		init.re[i], init.im[i] = r.NormFloat64(), r.NormFloat64()
	}
	var cm2, rm2 circuit.Mat2
	for k := range cm2 {
		cm2[k] = complex(r.NormFloat64(), r.NormFloat64())
		rm2[k] = complex(r.NormFloat64(), 0)
	}
	var cm4, rm4 circuit.Mat4
	for k := range cm4 {
		cm4[k] = complex(r.NormFloat64(), r.NormFloat64())
		rm4[k] = complex(r.NormFloat64(), 0)
	}

	type sweep struct {
		name string
		run  func(s *State, lo, hi int)
	}
	var sweeps []sweep
	for q := 0; q < n; q++ {
		sweeps = append(sweeps,
			sweep{fmt.Sprintf("apply1QRange q=%d", q), func(s *State, lo, hi int) { s.apply1QRange(cm2, q, lo, hi) }},
			sweep{fmt.Sprintf("apply1QRealRange q=%d", q), func(s *State, lo, hi int) { s.apply1QRealRange(rm2, q, lo, hi) }})
		for q1 := 0; q1 < n; q1++ {
			if q1 == q {
				continue
			}
			sweeps = append(sweeps,
				sweep{fmt.Sprintf("apply2QRange q0=%d q1=%d", q, q1), func(s *State, lo, hi int) { s.apply2QRange(&cm4, q, q1, lo, hi) }},
				sweep{fmt.Sprintf("apply2QMatRange real q0=%d q1=%d", q, q1), func(s *State, lo, hi int) { s.apply2QMatRange(&rm4, q, q1, lo, hi) }},
				sweep{fmt.Sprintf("applyCXRange c=%d t=%d", q, q1), func(s *State, lo, hi int) { s.applyCXRange(q, q1, lo, hi) }},
				sweep{fmt.Sprintf("applySWAPRange a=%d b=%d", q, q1), func(s *State, lo, hi int) { s.applySWAPRange(q, q1, lo, hi) }})
		}
	}
	// One sweep is every range of a set applied in turn, as shards would.
	rangeSets := [][][2]int{
		{{0, 1 << n}},
		{{0, 683}, {683, 1366}, {1366, 1 << n}},
		{{5, 2043}},
	}
	run := func(sw sweep, set [][2]int, avx2 bool) *State {
		s, _ := NewState(n)
		copy(s.re, init.re)
		copy(s.im, init.im)
		hasAVX2 = avx2
		for _, rg := range set {
			sw.run(s, rg[0], rg[1])
		}
		return s
	}
	for _, sw := range sweeps {
		for _, set := range rangeSets {
			want, got := run(sw, set, false), run(sw, set, true)
			for i := range want.re {
				if want.re[i] != got.re[i] || want.im[i] != got.im[i] {
					t.Fatalf("%s over %v: amplitude %d is %v in Go, %v with AVX2",
						sw.name, set, i, want.Amplitude(i), got.Amplitude(i))
				}
			}
		}
	}
}
