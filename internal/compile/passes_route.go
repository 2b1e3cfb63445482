package compile

import (
	"fmt"
	"math/rand"

	"qcloud/internal/circuit"
)

// checkMap verifies/records whether every two-qubit gate touches a
// coupled physical pair. Before routing it records the violation count;
// after routing (Props["routed"] set) any violation is an error.
type checkMap struct{}

// Name implements pass.
func (checkMap) Name() string { return "CheckMap" }

// Run implements pass.
func (checkMap) Run(ctx *passContext) error {
	topo := ctx.Machine.Topo
	bad := 0
	for _, g := range ctx.Circ.Gates {
		if g.Op.IsTwoQubit() && !topo.HasEdge(g.Qubits[0], g.Qubits[1]) {
			bad++
		}
	}
	ctx.Props["unmapped_2q"] = bad
	if bad > 0 && ctx.Props["routed"] == 1 {
		return fmt.Errorf("%d two-qubit gates remain on uncoupled pairs after routing", bad)
	}
	return nil
}

// stochasticSwap routes the laid-out circuit: every two-qubit gate on
// an uncoupled pair gets a chain of SWAPs along a randomized shortest
// path. Trials full routing attempts are made with independent
// randomness and the one inserting the fewest SWAPs wins — the
// stochastic-trials structure of Qiskit's StochasticSwap, whose cost
// dominates Fig 5 at scale.
type stochasticSwap struct {
	Trials int
}

// Name implements pass.
func (stochasticSwap) Name() string { return "StochasticSwap" }

// Run implements pass.
func (p stochasticSwap) Run(ctx *passContext) error {
	if ctx.Props["unmapped_2q"] == 0 {
		ctx.Props["routed"] = 1
		ctx.Props["swaps_inserted"] = 0
		return nil
	}
	var best *circuit.Circuit
	bestSwaps := -1
	for tr := 0; tr < p.Trials; tr++ {
		r := rand.New(rand.NewSource(ctx.Rand.Int63()))
		routed, swaps := routeOnce(ctx, r)
		if bestSwaps == -1 || swaps < bestSwaps {
			best, bestSwaps = routed, swaps
		}
	}
	ctx.Circ = best
	ctx.Props["routed"] = 1
	ctx.Props["swaps_inserted"] = bestSwaps
	return nil
}

// routeOnce performs one full routing sweep with the given randomness,
// returning the routed circuit and the number of SWAPs inserted.
func routeOnce(ctx *passContext, r *rand.Rand) (*circuit.Circuit, int) {
	topo := ctx.Machine.Topo
	dist := ctx.Distances()
	n := topo.N
	// l2p[v] is the current physical home of the datum that started on
	// physical qubit v (post-ApplyLayout labels); p2l is its inverse.
	l2p := make([]int, n)
	p2l := make([]int, n)
	for i := 0; i < n; i++ {
		l2p[i], p2l[i] = i, i
	}
	out := circuit.New(ctx.Circ.Name, n)
	out.NClbits = ctx.Circ.NClbits
	swaps := 0
	emitSwap := func(p1, p2 int) {
		out.Gates = append(out.Gates, circuit.Gate{Op: circuit.OpSWAP, Qubits: []int{p1, p2}, Clbit: -1})
		a, b := p2l[p1], p2l[p2]
		l2p[a], l2p[b] = p2, p1
		p2l[p1], p2l[p2] = b, a
		swaps++
	}
	scratch := make([]int, 0, 8)
	ctx.ops += int64(len(ctx.Circ.Gates))
	for _, g := range ctx.Circ.Gates {
		if g.Op.IsTwoQubit() {
			pa, pb := l2p[g.Qubits[0]], l2p[g.Qubits[1]]
			for dist[pa][pb] > 1 {
				// Step pa one hop toward pb along a random shortest path.
				scratch = scratch[:0]
				ctx.ops += int64(len(topo.Neighbors(pa)))
				for _, nb := range topo.Neighbors(pa) {
					if dist[nb][pb] == dist[pa][pb]-1 {
						scratch = append(scratch, nb)
					}
				}
				next := scratch[r.Intn(len(scratch))]
				emitSwap(pa, next)
				pa = next
			}
			out.Gates = append(out.Gates, circuit.Gate{Op: g.Op, Qubits: []int{pa, pb}, Params: g.Params, Clbit: g.Clbit})
			continue
		}
		ng := g.Clone()
		for qi, q := range ng.Qubits {
			ng.Qubits[qi] = l2p[q]
		}
		out.Gates = append(out.Gates, ng)
	}
	return out, swaps
}
