package backend

import "sort"

// Coupling-map constructors. Small devices use their published edge
// lists; large devices use a heavy-hex-like generator that reproduces
// the sparse, low-bisection-bandwidth structure Fig 6 reports.

// Line returns an n-qubit linear chain (athens, santiago, bogota, rome).
func Line(n int) *Topology {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return mustTopology(n, edges)
}

// fullyConnected returns the complete graph on n qubits; used for the
// ibmq_qasm_simulator pseudo-backend, which has no routing constraints.
func fullyConnected(n int) *Topology {
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, [2]int{a, b})
		}
	}
	return mustTopology(n, edges)
}

// tShape5 returns the 5-qubit "T" map used by vigo, ourense, valencia,
// london, burlington, essex, belem, lima and quito:
//
//	0 - 1 - 2
//	    |
//	    3
//	    |
//	    4
func tShape5() *Topology {
	return mustTopology(5, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}})
}

// bowtie5 returns the ibmqx2/ibmqx4 5-qubit bowtie map.
func bowtie5() *Topology {
	return mustTopology(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
}

// hShape7 returns the 7-qubit heavy-hex "H" fragment used by casablanca
// (and jakarta, lagos):
//
//	0 - 1 - 2
//	    |
//	    3
//	    |
//	4 - 5 - 6
func hShape7() *Topology {
	return mustTopology(7, [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}})
}

// melbourne15 returns the 15-qubit ladder map of ibmq_16_melbourne.
func melbourne15() *Topology {
	return mustTopology(15, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
		{7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14},
		{0, 14}, {1, 13}, {2, 12}, {3, 11}, {4, 10}, {5, 9}, {6, 8},
	})
}

// guadalupe16 returns the 16-qubit heavy-hex fragment of ibmq_guadalupe.
func guadalupe16() *Topology {
	return mustTopology(16, [][2]int{
		{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 5}, {4, 7}, {5, 8},
		{6, 7}, {7, 10}, {8, 9}, {8, 11}, {10, 12}, {11, 14},
		{12, 13}, {12, 15}, {13, 14},
	})
}

// falcon27 returns the 27-qubit heavy-hex map shared by toronto, paris,
// and the other Falcon-generation devices.
func falcon27() *Topology {
	return mustTopology(27, [][2]int{
		{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 5}, {4, 7}, {5, 8},
		{6, 7}, {7, 10}, {8, 9}, {8, 11}, {10, 12}, {11, 14},
		{12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18}, {16, 19},
		{17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25},
		{23, 24}, {24, 25}, {25, 26},
	})
}

// tokyo20 returns the 20-qubit ibmq_20_tokyo map: a 4x5 grid with
// diagonal couplers, the densest topology in the fleet.
func tokyo20() *Topology {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{5, 6}, {6, 7}, {7, 8}, {8, 9},
		{10, 11}, {11, 12}, {12, 13}, {13, 14},
		{15, 16}, {16, 17}, {17, 18}, {18, 19},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
		{5, 10}, {6, 11}, {7, 12}, {8, 13}, {9, 14},
		{10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
		{1, 7}, {2, 6}, {3, 9}, {4, 8},
		{5, 11}, {6, 10}, {7, 13}, {8, 12},
		{11, 17}, {12, 16}, {13, 19}, {14, 18},
	}
	return mustTopology(20, edges)
}

// penguin20 returns the sparser 20-qubit map used by johannesburg,
// boeblingen and poughkeepsie: a 4x5 grid with only the outer-column
// verticals.
func penguin20() *Topology {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{5, 6}, {6, 7}, {7, 8}, {8, 9},
		{10, 11}, {11, 12}, {12, 13}, {13, 14},
		{15, 16}, {16, 17}, {17, 18}, {18, 19},
		{0, 5}, {4, 9}, {5, 10}, {7, 12}, {9, 14}, {10, 15}, {14, 19}, {2, 7}, {12, 17},
	}
	return mustTopology(20, edges)
}

// HeavyHexLike generates a heavy-hex-style topology with exactly n
// qubits: rows of horizontal chains of length chainLen connected by
// rung qubits every fourth column, alternating offset per row pair.
// After generation the qubit set is trimmed from the end (preserving
// connectivity, since trailing qubits are chain/rung tails) to hit n
// exactly. Used for rochester (53q), manhattan (65q), and the fake
// 1000-qubit machine of Fig 5.
func HeavyHexLike(n int) *Topology {
	if n < 2 {
		return mustTopology(n, nil)
	}
	// Pick chain length ~ sqrt(3n) to keep the lattice roughly square.
	chainLen := 4
	for chainLen*chainLen < 3*n {
		chainLen++
	}
	var edges [][2]int
	var rows [][]int
	next := 0
	newRow := func() []int {
		row := make([]int, chainLen)
		for i := range row {
			row[i] = next
			next++
		}
		for i := 0; i+1 < chainLen; i++ {
			edges = append(edges, [2]int{row[i], row[i+1]})
		}
		return row
	}
	rows = append(rows, newRow())
	for rowIdx := 0; next < n+chainLen; rowIdx++ {
		prev := rows[len(rows)-1]
		row := newRow()
		rows = append(rows, row)
		offset := (rowIdx % 2) * 2
		for c := offset; c < chainLen; c += 4 {
			// Rung qubit between prev[c] and row[c].
			rung := next
			next++
			edges = append(edges, [2]int{prev[c], rung}, [2]int{rung, row[c]})
		}
	}
	// Trim to exactly n qubits: drop any edge touching a removed qubit.
	var kept [][2]int
	for _, e := range edges {
		if e[0] < n && e[1] < n {
			kept = append(kept, e)
		}
	}
	// Trimming can strand trailing fragments; stitch each disconnected
	// component to its predecessor qubit until the graph is connected.
	for {
		t := mustTopology(n, kept)
		if t.IsConnected() {
			return t
		}
		comp := components(t)
		for _, c := range comp[1:] {
			kept = append(kept, [2]int{c[0] - 1, c[0]})
		}
	}
}

// components returns the connected components of t, each sorted, ordered
// by smallest member.
func components(t *Topology) [][]int {
	seen := make([]bool, t.N)
	var comps [][]int
	for s := 0; s < t.N; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, q)
			for _, nb := range t.Neighbors(q) {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
