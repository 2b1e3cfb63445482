package qsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qcloud/internal/circuit"
)

// prefixCircuit builds a random exact-path circuit on n qubits whose
// gates reach the register bottom-up, as QFT, GHZ and ansatz layers do,
// over every op kind: complex, real and diagonal 1q gates, CX, CZ,
// CPhase, SWAP and CCX, some on qubits no gate has touched yet. For
// n >= 5 it opens with the prefix edge cases: (optionally) an X on the
// top qubit, a SWAP of two unpopulated qubits, a CX and a CCX whose
// controls are still |0>, and a lone RZ on an unpopulated qubit.
func prefixCircuit(r *rand.Rand, n int, topX bool) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("prefix%d", n), n)
	if topX {
		c.X(n - 1)
	}
	if n >= 5 {
		c.SWAP(n-2, n-3)
		c.CX(n-2, 0)
		c.CCX(n-3, 0, 1)
		c.RZ(n-2, r.Float64()*6)
	}
	// distinct draws k different qubits below lim, or nil if there are
	// not k of them.
	distinct := func(k, lim int) []int {
		if lim < k {
			return nil
		}
		return r.Perm(lim)[:k]
	}
	reach := 1
	for s := 0; s < 4+3*n; s++ {
		if reach < n && r.Intn(3) == 0 {
			reach++
		}
		q := r.Intn(reach)
		two, three := distinct(2, reach), distinct(3, reach)
		wild2, wild3 := distinct(2, n), distinct(3, n)
		switch r.Intn(13) {
		case 0:
			c.H(q)
		case 1:
			c.RZ(q, r.Float64()*6).SX(q).RZ(q, r.Float64()*6)
		case 2:
			c.RY(q, r.Float64()*3)
		case 3:
			c.T(q)
		case 4:
			if two != nil {
				c.CX(two[0], two[1])
			}
		case 5:
			if two != nil {
				c.CZ(two[0], two[1])
			}
		case 6:
			if two != nil {
				c.CPhase(two[0], two[1], r.Float64()*6)
			}
		case 7:
			if two != nil {
				c.SWAP(two[0], two[1])
			}
		case 8:
			if three != nil {
				c.CCX(three[0], three[1], three[2])
			}
		case 9:
			if wild2 != nil {
				c.CX(wild2[0], wild2[1])
			}
		case 10:
			if wild3 != nil {
				c.CCX(wild3[0], wild3[1], wild3[2])
			}
		case 11:
			if wild2 != nil {
				c.SWAP(wild2[0], wild2[1])
			}
		case 12:
			c.RZ(r.Intn(n), r.Float64()*6)
		}
	}
	c.MeasureAll()
	return c
}

// TestExactPrefixMatchesFullWidth is prefix evolution's contract: after
// every op of random circuits at widths 1-14 (14 is kernelMinAmps, where
// the prefix's kernels go parallel), under each fusion mode, evolveExact
// leaves the state at its full width with every amplitude == to a
// full-width evolution's; and the exact path samples the oracle's counts
// at 1 and 4 workers.
func TestExactPrefixMatchesFullWidth(t *testing.T) {
	const shots = 400
	r := rand.New(rand.NewSource(22))
	for n := 1; n <= 14; n++ {
		for k := 0; k < 3; k++ {
			c := prefixCircuit(r, n, k == 0)
			seed := int64(100*n + k)
			want := referenceExact(t, c, shots, seed)
			for _, mode := range fusionModes {
				prog, err := compileProgram(c, nil, mode.level)
				if err != nil {
					t.Fatal(err)
				}
				full, _ := NewState(n)
				full.SetWorkers(1)
				pre, _ := NewState(n)
				pre.SetWorkers(4)
				for i := range prog.ops {
					prog.ops[i].applyFast(full)
					pre.Reset()
					evolveExact(&program{ops: prog.ops[:i+1]}, pre)
					if pre.n != n || len(pre.re) != 1<<n || len(pre.im) != 1<<n {
						t.Fatalf("%s %s op %d: state left at n=%d len=%d", c.Name, mode.name, i, pre.n, len(pre.re))
					}
					for a := range full.re {
						if full.re[a] != pre.re[a] || full.im[a] != pre.im[a] {
							t.Fatalf("%s %s after op %d (kind %d): amplitude %d is %v on the prefix, %v full-width",
								c.Name, mode.name, i, prog.ops[i].kind, a, pre.Amplitude(a), full.Amplitude(a))
						}
					}
				}
				for _, w := range []int{1, 4} {
					got, err := runFusion(c, shots, nil, seed, Parallelism{Workers: w}, mode.level)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s %s workers=%d: counts\n%v\nwant\n%v", c.Name, mode.name, w, got, want)
					}
				}
			}
		}
	}
}

// TestPrefixSkipsIdentityOps pins the width rules on one program: ops
// that are the identity on the populated support do not run.
func TestPrefixSkipsIdentityOps(t *testing.T) {
	c := circuit.New("skips", 6)
	c.CX(4, 0)     // control still |0>: skipped
	c.SWAP(3, 5)   // both unpopulated: skipped
	c.H(1)         // w = 2
	c.CCX(1, 3, 2) // control 3 unpopulated: skipped
	c.CX(1, 4)     // w = 5
	c.CZ(0, 5)     // diagonal: w stays 5
	c.SWAP(2, 5)   // w = 6
	prog, err := compileProgram(c, nil, fuseNone)
	if err != nil {
		t.Fatal(err)
	}
	wantW := []int{0, 0, 2, 2, 5, 5, 6}
	wantRun := []bool{false, false, true, false, true, true, true}
	w := 0
	for i := range prog.ops {
		grown, run := prog.ops[i].populates(w)
		if run {
			w = grown
		}
		if w != wantW[i] || run != wantRun[i] {
			t.Fatalf("op %d: width %d run %v, want width %d run %v", i, w, run, wantW[i], wantRun[i])
		}
	}
}
