package compile

import (
	"fmt"
	"sort"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
)

// interactionGraph returns the weighted logical-qubit interaction graph:
// weights[a][b] = number of two-qubit gates between a and b.
func interactionGraph(c *circuit.Circuit) map[[2]int]int {
	w := make(map[[2]int]int)
	for _, g := range c.Gates {
		if !g.Op.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		w[[2]int{a, b}]++
	}
	return w
}

// logicalAdjacency converts the interaction graph into per-qubit
// adjacency lists with weights.
func logicalAdjacency(k int, weights map[[2]int]int) [][]int {
	adj := make([][]int, k)
	for e := range weights {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for q := range adj {
		sort.Ints(adj[q])
	}
	return adj
}

// trivialLayout maps logical qubit i to physical qubit i. It is the
// last-resort layout and only runs if no earlier pass chose one.
type trivialLayout struct{}

// Name implements pass.
func (trivialLayout) Name() string { return "TrivialLayout" }

// Run implements pass.
func (trivialLayout) Run(ctx *passContext) error {
	if ctx.Layout != nil {
		return nil
	}
	layout := make([]int, ctx.Circ.NQubits)
	phys := 0
	for i := range layout {
		for phys < ctx.Machine.NumQubits() && ctx.IsExcluded(phys) {
			phys++
		}
		if phys >= ctx.Machine.NumQubits() {
			return fmt.Errorf("trivial layout: not enough free physical qubits")
		}
		layout[i] = phys
		phys++
	}
	ctx.Layout = layout
	ctx.Props["layout_method"] = layoutTrivial
	return nil
}

// growRegion grows a connected region of k physical qubits from seed,
// greedily adding the candidate with the highest accumulated gain.
// edgeScore scores each new internal coupler; nodeScore scores the
// vertex itself. Gains are maintained incrementally so a full growth is
// O(k · degree) plus candidate scans. Returns nil if the component is
// smaller than k.
func growRegion(topo *backend.Topology, k, seed int, edgeScore func(a, b int) float64, nodeScore func(v int) float64) []int {
	in := make([]bool, topo.N)
	in[seed] = true
	members := []int{seed}
	gain := make(map[int]float64)
	addCandidatesOf := func(v int) {
		for _, nb := range topo.Neighbors(v) {
			if in[nb] {
				continue
			}
			if _, ok := gain[nb]; !ok {
				gain[nb] = nodeScore(nb)
			}
			gain[nb] += edgeScore(nb, v)
		}
	}
	addCandidatesOf(seed)
	for len(members) < k {
		bestV := -1
		bestG := 0.0
		for v, g := range gain {
			if bestV == -1 || g > bestG || (g == bestG && v < bestV) {
				bestV, bestG = v, g
			}
		}
		if bestV == -1 {
			return nil
		}
		delete(gain, bestV)
		in[bestV] = true
		members = append(members, bestV)
		addCandidatesOf(bestV)
	}
	return members
}

// regionSeeds returns the seeds to try for region growth: every qubit
// on small machines, a deterministic stride sample on large ones.
func regionSeeds(n int) []int {
	const maxSeeds = 48
	if n <= maxSeeds {
		seeds := make([]int, n)
		for i := range seeds {
			seeds[i] = i
		}
		return seeds
	}
	seeds := make([]int, 0, maxSeeds)
	stride := n / maxSeeds
	for s := 0; s < n && len(seeds) < maxSeeds; s += stride {
		seeds = append(seeds, s)
	}
	return seeds
}

// regionEdgeStats returns internal edge count and summed CX error of a
// region.
func regionEdgeStats(topo *backend.Topology, cal *backend.Calibration, region []int) (edges int, errSum float64) {
	in := make(map[int]bool, len(region))
	for _, p := range region {
		in[p] = true
	}
	for _, e := range topo.Edges {
		if in[e[0]] && in[e[1]] {
			edges++
			if cal != nil {
				errSum += cal.CXError(e[0], e[1], 0.5)
			}
		}
	}
	return edges, errSum
}

// denseLayout finds a densely connected physical subregion of the
// machine with as many internal couplers as possible, by greedy growth
// from multiple seeds, and assigns logical qubits to it in interaction
// order.
type denseLayout struct{}

// Name implements pass.
func (denseLayout) Name() string { return "DenseLayout" }

// Run implements pass.
func (denseLayout) Run(ctx *passContext) error {
	if ctx.Layout != nil {
		return nil
	}
	k := ctx.Circ.NQubits
	topo := ctx.Machine.Topo
	edgeScore := func(a, b int) float64 { return 1 }
	nodeScore := func(v int) float64 { return 0 }
	bestEdges := -1
	var best []int
	for _, seed := range regionSeeds(topo.N) {
		if ctx.IsExcluded(seed) {
			continue
		}
		region := growRegion(topo, k, seed, edgeScore, nodeScore)
		if region == nil {
			continue
		}
		edges, _ := regionEdgeStats(topo, nil, region)
		if edges > bestEdges {
			bestEdges, best = edges, region
		}
	}
	if best == nil {
		// Disconnected machine smaller fragments; fall back to the
		// first k free qubits and let routing fail loudly if truly
		// invalid.
		best = make([]int, 0, k)
		for q := 0; q < topo.N && len(best) < k; q++ {
			if !ctx.IsExcluded(q) {
				best = append(best, q)
			}
		}
	}
	ctx.Layout = assignByInteraction(ctx.Circ, topo, best, ctx.excluded)
	ctx.Props["layout_method"] = layoutDense
	return nil
}

// noiseAdaptiveLayout is DenseLayout with calibration awareness: region
// growth is scored by coupler quality and readout error, so the chosen
// mapping tracks the current calibration. Re-running it after a
// recalibration can yield a different mapping — the staleness effect of
// the paper's Fig 12b. It runs only when a calibration is present.
type noiseAdaptiveLayout struct{}

// Name implements pass.
func (noiseAdaptiveLayout) Name() string { return "NoiseAdaptiveLayout" }

// Run implements pass.
func (noiseAdaptiveLayout) Run(ctx *passContext) error {
	if ctx.Layout != nil || ctx.Calib == nil {
		return nil
	}
	k := ctx.Circ.NQubits
	topo := ctx.Machine.Topo
	cal := ctx.Calib
	if k > topo.N {
		return fmt.Errorf("layout: circuit wider than machine")
	}
	edgeScore := func(a, b int) float64 { return 1 - 10*cal.CXError(a, b, 0.5) }
	nodeScore := func(v int) float64 { return -2 * cal.ErrRO[v] }
	bestScore := 0.0
	var best []int
	for _, seed := range regionSeeds(topo.N) {
		if ctx.IsExcluded(seed) {
			continue
		}
		region := growRegion(topo, k, seed, edgeScore, nodeScore)
		if region == nil {
			continue
		}
		edges, errSum := regionEdgeStats(topo, cal, region)
		score := float64(edges)
		if edges > 0 {
			score -= 20 * errSum / float64(edges)
		}
		if best == nil || score > bestScore {
			bestScore, best = score, region
		}
	}
	if best == nil {
		return nil // let DenseLayout handle it
	}
	ctx.Layout = assignByInteractionNoise(ctx.Circ, topo, cal, best, ctx.excluded)
	ctx.Props["layout_method"] = layoutNoise
	return nil
}

// assignByInteraction places the most-interacting logical qubits on the
// best-connected physical qubits of the region, preferring physical
// neighbors of already-placed partners. Only the most recently placed
// partners are consulted (capped) so dense interaction graphs stay
// tractable.
func assignByInteraction(c *circuit.Circuit, topo *backend.Topology, region []int, excluded []bool) []int {
	return assignCore(c, topo, nil, region, excluded)
}

// assignByInteractionNoise is assignByInteraction with CX-error-aware
// scoring.
func assignByInteractionNoise(c *circuit.Circuit, topo *backend.Topology, cal *backend.Calibration, region []int, excluded []bool) []int {
	return assignCore(c, topo, cal, region, excluded)
}

func assignCore(c *circuit.Circuit, topo *backend.Topology, cal *backend.Calibration, region []int, excluded []bool) []int {
	const partnerCap = 16
	k := c.NQubits
	weights := interactionGraph(c)
	ladj := logicalAdjacency(k, weights)
	degree := make([]int, k)
	for e, w := range weights {
		degree[e[0]] += w
		degree[e[1]] += w
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if degree[order[a]] != degree[order[b]] {
			return degree[order[a]] > degree[order[b]]
		}
		return order[a] < order[b]
	})

	// Free region qubits sorted by in-region degree (fallback choice).
	inRegion := make(map[int]bool, len(region))
	for _, p := range region {
		inRegion[p] = true
	}
	regDeg := func(p int) int {
		d := 0
		for _, nb := range topo.Neighbors(p) {
			if inRegion[nb] {
				d++
			}
		}
		return d
	}
	fallback := append([]int(nil), region...)
	sort.Slice(fallback, func(a, b int) bool {
		da, db := regDeg(fallback[a]), regDeg(fallback[b])
		if da != db {
			return da > db
		}
		return fallback[a] < fallback[b]
	})

	usedPhys := make(map[int]bool, k)
	layout := make([]int, k)
	for i := range layout {
		layout[i] = -1
	}
	fbNext := 0
	for _, lq := range order {
		// Candidates: free neighbors of recently placed partners.
		type cand struct {
			p     int
			score float64
		}
		var cands []cand
		partners := 0
		for i := len(ladj[lq]) - 1; i >= 0 && partners < partnerCap; i-- {
			partner := ladj[lq][i]
			pp := layout[partner]
			if pp == -1 {
				continue
			}
			partners++
			key := [2]int{lq, partner}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			w := float64(weights[key])
			for _, nb := range topo.Neighbors(pp) {
				if usedPhys[nb] || !inRegion[nb] {
					continue
				}
				s := 10 * w
				if cal != nil {
					s *= 1 - cal.CXError(pp, nb, 0.5)
				}
				cands = append(cands, cand{p: nb, score: s})
			}
		}
		bestP := -1
		if len(cands) > 0 {
			// Merge duplicate candidates and pick the best score
			// (ties to the smallest physical index).
			agg := make(map[int]float64)
			for _, cd := range cands {
				agg[cd.p] += cd.score
			}
			bestS := -1.0
			for p, s := range agg {
				if s > bestS || (s == bestS && p < bestP) {
					bestP, bestS = p, s
				}
			}
		}
		if bestP == -1 {
			for fbNext < len(fallback) && usedPhys[fallback[fbNext]] {
				fbNext++
			}
			if fbNext < len(fallback) {
				bestP = fallback[fbNext]
			} else {
				// Region exhausted (shouldn't happen): any free,
				// non-excluded qubit.
				for p := 0; p < topo.N; p++ {
					if !usedPhys[p] && !(p < len(excluded) && excluded[p]) {
						bestP = p
						break
					}
				}
			}
		}
		usedPhys[bestP] = true
		layout[lq] = bestP
	}
	return layout
}

// cspLayout searches for a perfect embedding of the circuit's
// interaction graph into the coupling map (subgraph monomorphism) via
// backtracking, bounded by a node budget, like Qiskit's CSPLayout with
// its call/time limit. If it succeeds, routing needs no swaps; if the
// budget is exhausted — the common case for dense circuits, where the
// search burns its entire limit before giving up, which is why this
// pass tops the paper's Fig 5 — later layout passes take over. No
// degree-based pruning is done, faithful to the unpruned constraint
// solver Qiskit delegates to.
type cspLayout struct{}

// cspBudget caps the candidate visits of one CSP layout search.
const cspBudget = 200_000

// Name implements pass.
func (cspLayout) Name() string { return "CSPLayout" }

// Run implements pass.
func (cspLayout) Run(ctx *passContext) error {
	if ctx.Layout != nil {
		return nil
	}
	k := ctx.Circ.NQubits
	topo := ctx.Machine.Topo
	weights := interactionGraph(ctx.Circ)
	if len(weights) == 0 {
		return nil // no constraints; cheaper passes will pick a layout
	}
	ladj := logicalAdjacency(k, weights)
	order := make([]int, 0, k)
	for q := 0; q < k; q++ {
		if len(ladj[q]) > 0 {
			order = append(order, q)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if len(ladj[order[a]]) != len(ladj[order[b]]) {
			return len(ladj[order[a]]) > len(ladj[order[b]])
		}
		return order[a] < order[b]
	})

	budget := cspBudget
	assign := make([]int, k)
	for i := range assign {
		assign[i] = -1
	}
	usedPhys := make([]bool, topo.N)
	var search func(idx int) bool
	search = func(idx int) bool {
		if budget <= 0 {
			return false
		}
		if idx == len(order) {
			return true
		}
		lq := order[idx]
		for phys := 0; phys < topo.N; phys++ {
			if usedPhys[phys] || ctx.IsExcluded(phys) {
				continue
			}
			budget--
			if budget <= 0 {
				return false
			}
			ok := true
			for _, partner := range ladj[lq] {
				if pp := assign[partner]; pp != -1 && !topo.HasEdge(phys, pp) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assign[lq] = phys
			usedPhys[phys] = true
			if search(idx + 1) {
				return true
			}
			assign[lq] = -1
			usedPhys[phys] = false
		}
		return false
	}
	if !search(0) {
		return nil // no perfect embedding found within budget
	}
	// Place interaction-free logical qubits on any free physical qubit.
	next := 0
	for q := 0; q < k; q++ {
		if assign[q] != -1 {
			continue
		}
		for usedPhys[next] || ctx.IsExcluded(next) {
			next++
		}
		assign[q] = next
		usedPhys[next] = true
	}
	ctx.Layout = assign
	ctx.Props["layout_method"] = layoutCSP
	return nil
}

// setLayout records the chosen layout into the property set (a
// bookkeeping pass in Qiskit; here it validates the invariants).
type setLayout struct{}

// Name implements pass.
func (setLayout) Name() string { return "SetLayout" }

// Run implements pass.
func (setLayout) Run(ctx *passContext) error {
	if ctx.Layout == nil {
		return fmt.Errorf("no layout chosen")
	}
	seen := make(map[int]bool, len(ctx.Layout))
	for lq, p := range ctx.Layout {
		if p < 0 || p >= ctx.Machine.NumQubits() {
			return fmt.Errorf("layout maps logical %d to invalid physical %d", lq, p)
		}
		if seen[p] {
			return fmt.Errorf("layout maps two logical qubits to physical %d", p)
		}
		seen[p] = true
	}
	ctx.Props["layout_set"] = 1
	return nil
}

// fullAncillaAllocate extends the layout with the machine's unused
// physical qubits as ancillas.
type fullAncillaAllocate struct{}

// Name implements pass.
func (fullAncillaAllocate) Name() string { return "FullAncillaAllocate" }

// Run implements pass.
func (fullAncillaAllocate) Run(ctx *passContext) error {
	used := make([]bool, ctx.Machine.NumQubits())
	for _, p := range ctx.Layout {
		used[p] = true
	}
	ancillas := 0
	for _, u := range used {
		if !u {
			ancillas++
		}
	}
	ctx.Props["ancillas"] = ancillas
	return nil
}

// enlargeWithAncilla widens the circuit register to the machine size so
// ApplyLayout can relabel in place.
type enlargeWithAncilla struct{}

// Name implements pass.
func (enlargeWithAncilla) Name() string { return "EnlargeWithAncilla" }

// Run implements pass.
func (enlargeWithAncilla) Run(ctx *passContext) error {
	if ctx.Circ.NQubits < ctx.Machine.NumQubits() {
		ctx.Circ.NQubits = ctx.Machine.NumQubits()
	}
	return nil
}

// applyLayout rewrites every gate's qubit operands from logical to
// physical indices.
type applyLayout struct{}

// Name implements pass.
func (applyLayout) Name() string { return "ApplyLayout" }

// Run implements pass.
func (applyLayout) Run(ctx *passContext) error {
	if ctx.Applied {
		return nil
	}
	for gi := range ctx.Circ.Gates {
		g := &ctx.Circ.Gates[gi]
		for qi, q := range g.Qubits {
			if q < len(ctx.Layout) {
				g.Qubits[qi] = ctx.Layout[q]
			}
		}
	}
	ctx.Applied = true
	return nil
}
