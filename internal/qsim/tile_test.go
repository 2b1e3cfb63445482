package qsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// tiledOps counts the ops evolveExact applies tile by tile in prog.
func tiledOps(prog *program) int {
	n, w := 0, 0
	for i := range prog.ops {
		op := &prog.ops[i]
		if op.kind == opMeasure {
			continue
		}
		grown, run := op.populates(w)
		if !run {
			continue
		}
		w = grown
		if w > tileQubits && op.tiles(w) {
			n++
		}
	}
	return n
}

// TestTiledEvolutionMatchesUntiled is tiled evolution's contract: with
// the tile forced down to 3, 4 and 6 qubits, random 11-qubit circuits —
// every fused op kind, the populated prefix growing between runs,
// CX/SWAP/CCX on both sides of the tile boundary, diagonal ops on high
// qubits — leave every amplitude == to the untiled op-by-op loop's,
// serially and with tiles sharded across 3 workers, under each fusion
// mode; and BatchRun samples the untiled counts.
func TestTiledEvolutionMatchesUntiled(t *testing.T) {
	const n, shots = 11, 300
	untiled, minAmps := tileQubits, kernelMinAmps
	t.Cleanup(func() { tileQubits, kernelMinAmps = untiled, minAmps })
	r := rand.New(rand.NewSource(23))
	for k := 0; k < 6; k++ {
		// Diagonal ops on the top qubits go before the measurements.
		c := prefixCircuit(r, n, k%2 == 0)
		c.Gates = c.Gates[:len(c.Gates)-n]
		c.CZ(0, n-1).CPhase(n-1, n-2, r.Float64()*6).H(1).RZ(n-1, r.Float64()*6).MeasureAll()
		tileQubits = MaxQubits
		want := BatchRun([]BatchJob{{Circ: c, Shots: shots, Seed: int64(k)}}, Parallelism{Workers: 1})[0]
		for _, mode := range fusionModes {
			prog, err := compileProgram(c, nil, mode.level)
			if err != nil {
				t.Fatal(err)
			}
			tileQubits = MaxQubits
			ref, _ := NewState(n)
			ref.SetWorkers(1)
			evolveExact(prog, ref)
			for _, tq := range []int{3, 4, 6} {
				tileQubits = tq
				if tiledOps(prog) == 0 {
					t.Fatalf("%s %s tile %d: no op runs tiled", c.Name, mode.name, tq)
				}
				for _, w := range []int{1, 3} {
					st, _ := NewState(n)
					st.SetWorkers(w)
					kernelMinAmps = 1 << 5
					evolveExact(prog, st)
					kernelMinAmps = minAmps
					for a := range ref.re {
						if ref.re[a] != st.re[a] || ref.im[a] != st.im[a] {
							t.Fatalf("%s %s tile %d workers=%d: amplitude %d is %v tiled, %v untiled",
								c.Name, mode.name, tq, w, a, st.Amplitude(a), ref.Amplitude(a))
						}
					}
				}
				got := BatchRun([]BatchJob{{Circ: c, Shots: shots, Seed: int64(k)}}, Parallelism{Workers: 1})[0]
				if got.Err != nil || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Fatalf("%s tile %d: counts %v (err %v), untiled %v", c.Name, tq, got.Counts, got.Err, want.Counts)
				}
			}
		}
	}
}
