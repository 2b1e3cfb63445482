// Package backend models the quantum machines of the paper's fleet:
// coupling-map topologies, calibration data with spatial and temporal
// variation, and a registry of the 25+ IBM devices (plus the fake
// 1000-qubit target of Fig 5) the study spans.
package backend

import (
	"fmt"
	"math/rand"
	"sort"
)

// Topology is an undirected coupling map over N qubits. Edges are
// stored with A < B exactly once.
type Topology struct {
	N     int
	Edges [][2]int
	adj   [][]int
}

// NewTopology validates and builds a topology. Duplicate or reversed
// edges are collapsed; self-loops and out-of-range endpoints error.
func NewTopology(n int, edges [][2]int) (*Topology, error) {
	if n < 0 {
		return nil, fmt.Errorf("backend: negative qubit count %d", n)
	}
	seen := make(map[[2]int]bool, len(edges))
	t := &Topology{N: n, adj: make([][]int, n)}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			return nil, fmt.Errorf("backend: self-loop on qubit %d", a)
		}
		if a < 0 || b >= n {
			return nil, fmt.Errorf("backend: edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		key := [2]int{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		t.Edges = append(t.Edges, key)
		t.adj[a] = append(t.adj[a], b)
		t.adj[b] = append(t.adj[b], a)
	}
	sort.Slice(t.Edges, func(i, j int) bool {
		if t.Edges[i][0] != t.Edges[j][0] {
			return t.Edges[i][0] < t.Edges[j][0]
		}
		return t.Edges[i][1] < t.Edges[j][1]
	})
	for q := range t.adj {
		sort.Ints(t.adj[q])
	}
	return t, nil
}

// mustTopology is NewTopology that panics on error; used for the
// hard-coded device maps, where an error is a programming mistake.
func mustTopology(n int, edges [][2]int) *Topology {
	t, err := NewTopology(n, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// Neighbors returns the sorted adjacency of qubit q.
func (t *Topology) Neighbors(q int) []int { return t.adj[q] }

// HasEdge reports whether qubits a and b are coupled.
func (t *Topology) HasEdge(a, b int) bool {
	for _, n := range t.adj[a] {
		if n == b {
			return true
		}
	}
	return false
}

// IsConnected reports whether the coupling graph is connected
// (single-qubit machines are trivially connected).
func (t *Topology) IsConnected() bool {
	if t.N <= 1 {
		return true
	}
	seen := make([]bool, t.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range t.adj[q] {
			if !seen[n] {
				seen[n] = true
				count++
				stack = append(stack, n)
			}
		}
	}
	return count == t.N
}

// Distances returns the all-pairs shortest-path matrix (hop counts) via
// BFS from every qubit. Unreachable pairs get -1.
func (t *Topology) Distances() [][]int {
	d := make([][]int, t.N)
	for s := 0; s < t.N; s++ {
		row := make([]int, t.N)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for _, n := range t.adj[q] {
				if row[n] == -1 {
					row[n] = row[q] + 1
					queue = append(queue, n)
				}
			}
		}
		d[s] = row
	}
	return d
}

// cutSize counts edges crossing the bipartition given by inA.
func (t *Topology) cutSize(inA []bool) int {
	cut := 0
	for _, e := range t.Edges {
		if inA[e[0]] != inA[e[1]] {
			cut++
		}
	}
	return cut
}

// BisectionBandwidth returns the minimum number of coupler edges that
// must be cut to split the machine into two halves of floor(N/2) and
// ceil(N/2) qubits — the connectivity metric of the paper's Fig 6.
// Exact (exhaustive over balanced bipartitions) for N <= exactLimit;
// Kernighan-Lin with seeded random restarts up to a few hundred qubits;
// greedy region growth with boundary refinement beyond that.
func (t *Topology) BisectionBandwidth() int {
	const exactLimit = 20
	if t.N <= 1 {
		return 0
	}
	if t.N <= exactLimit {
		return t.exactBisection()
	}
	r := rand.New(rand.NewSource(int64(t.N)*2654435761 + 12345))
	if t.N <= 256 {
		return t.klBisection(r)
	}
	return t.growBisection(r)
}

func (t *Topology) exactBisection() int {
	half := t.N / 2
	inA := make([]bool, t.N)
	best := len(t.Edges) + 1
	// Fix qubit 0 in side A to halve the search space.
	var rec func(next, chosen int)
	rec = func(next, chosen int) {
		if chosen == half {
			if c := t.cutSize(inA); c < best {
				best = c
			}
			return
		}
		if t.N-next < half-chosen {
			return
		}
		inA[next] = true
		rec(next+1, chosen+1)
		inA[next] = false
		rec(next+1, chosen)
	}
	inA[0] = true
	rec(1, 1)
	return best
}

// klBisection runs classic Kernighan-Lin (tentative full passes with
// rollback to the best prefix) from multiple seeded random balanced
// partitions and returns the best cut found.
func (t *Topology) klBisection(r *rand.Rand) int {
	const restarts = 16
	best := len(t.Edges) + 1
	half := t.N / 2
	for rs := 0; rs < restarts; rs++ {
		perm := r.Perm(t.N)
		inA := make([]bool, t.N)
		for _, q := range perm[:half] {
			inA[q] = true
		}
		cut := t.cutSize(inA)
		for {
			gain := t.klPass(inA)
			if gain <= 0 {
				break
			}
			cut -= gain
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

// klPass performs one Kernighan-Lin pass over the bipartition inA:
// it tentatively swaps the best remaining (a, b) pair (locking both)
// even when the step gain is negative, then rolls back to the prefix of
// swaps with the highest cumulative gain. It returns that gain and
// leaves inA updated accordingly.
func (t *Topology) klPass(inA []bool) int {
	n := t.N
	locked := make([]bool, n)
	type swapRec struct{ a, b int }
	var recs []swapRec
	cum, bestCum, bestK := 0, 0, 0
	steps := n / 2
	d := make([]int, n) // external - internal degree
	for step := 0; step < steps; step++ {
		for v := 0; v < n; v++ {
			if locked[v] {
				continue
			}
			d[v] = 0
			for _, nb := range t.adj[v] {
				if inA[v] != inA[nb] {
					d[v]++
				} else {
					d[v]--
				}
			}
		}
		bestGain := -1 << 30
		ba, bb := -1, -1
		for a := 0; a < n; a++ {
			if locked[a] || !inA[a] {
				continue
			}
			for b := 0; b < n; b++ {
				if locked[b] || inA[b] {
					continue
				}
				g := d[a] + d[b]
				if t.HasEdge(a, b) {
					g -= 2
				}
				if g > bestGain {
					bestGain, ba, bb = g, a, b
				}
			}
		}
		if ba == -1 {
			break
		}
		inA[ba], inA[bb] = false, true
		locked[ba], locked[bb] = true, true
		cum += bestGain
		recs = append(recs, swapRec{ba, bb})
		if cum > bestCum {
			bestCum, bestK = cum, len(recs)
		}
	}
	// Roll back the swaps beyond the best prefix.
	for i := len(recs) - 1; i >= bestK; i-- {
		inA[recs[i].a], inA[recs[i].b] = true, false
	}
	return bestCum
}

// growBisection approximates the bisection of large sparse graphs by
// greedy min-cut region growth from several deterministic seeds,
// followed by a boundary-swap hill climb.
func (t *Topology) growBisection(r *rand.Rand) int {
	half := t.N / 2
	best := len(t.Edges) + 1
	seeds := make([]int, 0, 24)
	for i := 0; i < 24; i++ {
		seeds = append(seeds, r.Intn(t.N))
	}
	for _, seed := range seeds {
		inA := make([]bool, t.N)
		inA[seed] = true
		for size := 1; size < half; size++ {
			bestV, bestDelta := -1, 1<<30
			for v := 0; v < t.N; v++ {
				if inA[v] {
					continue
				}
				eA := 0
				for _, nb := range t.adj[v] {
					if inA[nb] {
						eA++
					}
				}
				delta := len(t.adj[v]) - 2*eA
				// Prefer vertices attached to the region to keep growth
				// contiguous.
				if eA == 0 {
					delta += 1 << 10
				}
				if delta < bestDelta {
					bestDelta, bestV = delta, v
				}
			}
			inA[bestV] = true
		}
		// A few KL passes refine the grown region cheaply.
		cut := t.cutSize(inA)
		for pass := 0; pass < 3; pass++ {
			gain := t.klPass(inA)
			if gain <= 0 {
				break
			}
			cut -= gain
		}
		if cut < best {
			best = cut
		}
	}
	return best
}
