package analysis

import (
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/stats"
)

func TestFig05CompilePassProfileScales(t *testing.T) {
	byName := backend.FleetByName()
	small := byName["ibmq_16_melbourne"]
	// Scaled-down instance of the paper's (64q->Manhattan, 980q->1000q)
	// pair. Fig 5's quantitative claim is that per-pass costs grow by
	// orders of magnitude with problem size, with routing among the
	// most expensive passes; that is what we assert (qcloud-analyze -fig 5
	// -fig5-large N runs a larger instance). The assertions read the
	// passes' work counts, not their seconds: the two compiles run at
	// once, and single-run wall-clock ratios moved with host load.
	// Measured: the large compile does 511x the small one's work
	// (10 378 -> 5 300 401 ops), and routing 1290x (985 -> 1 270 330),
	// the most of any pass.
	costs, err := CompilePassProfile(8, small, 64, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var totalSmall, totalLarge int64
	byPass := make(map[string]PassCost)
	for _, c := range costs {
		totalSmall += c.SmallOps
		totalLarge += c.LargeOps
		byPass[c.Pass] = c
	}
	if totalLarge < 100*totalSmall {
		t.Fatalf("large compile did %d ops, not orders more than the small one's %d", totalLarge, totalSmall)
	}
	swap := byPass["StochasticSwap"]
	if swap.LargeOps < 300*swap.SmallOps {
		t.Fatalf("routing grew only %.1fx (%d -> %d ops), want orders of magnitude",
			float64(swap.LargeOps)/float64(max(swap.SmallOps, 1)), swap.SmallOps, swap.LargeOps)
	}
	// Routing sits among the top passes of the large compile.
	higher := 0
	for _, c := range costs {
		if c.LargeOps > swap.LargeOps {
			higher++
		}
	}
	if higher > 4 {
		t.Fatalf("StochasticSwap ranked %d-th by large-compile work, want top 5", higher+1)
	}
}

func TestFig06BisectionTable(t *testing.T) {
	rows := BisectionTable(backend.Fleet())
	if len(rows) < 25 {
		t.Fatalf("rows = %d, want the full fleet", len(rows))
	}
	byName := make(map[string]BisectionRow)
	for _, r := range rows {
		byName[r.Machine] = r
		// Fig 6: "the bisection bandwidth is very low across these
		// quantum machines" — all under the 8 of a 64-node mesh.
		if r.BisectionBandwidth > 8 {
			t.Fatalf("%s bisection = %d, too high for a quantum coupler graph", r.Machine, r.BisectionBandwidth)
		}
	}
	if m := byName["ibmq_manhattan"]; m.BisectionBandwidth > 5 {
		t.Fatalf("manhattan bisection = %d, paper reports 3", m.BisectionBandwidth)
	}
	if byName["ibmq_armonk"].BisectionBandwidth != 0 {
		t.Fatal("single-qubit machine has no couplers to cut")
	}
	// Larger machines do not gain bandwidth proportionally: manhattan
	// (65q) stays at or below the densest 20q machine.
	if byName["ibmq_manhattan"].BisectionBandwidth > byName["ibmq_20_tokyo"].BisectionBandwidth {
		t.Fatal("heavy-hex 65q should not out-connect the dense 20q tokyo")
	}
}

func TestFig07FidelityTracksCXMetrics(t *testing.T) {
	byName := backend.FleetByName()
	var machines []*backend.Machine
	for _, name := range []string{"ibmq_casablanca", "ibmq_toronto", "ibmq_guadalupe", "ibmq_rome", "ibmq_manhattan"} {
		machines = append(machines, byName[name])
	}
	at := time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
	rows, err := FidelityVsCXMetrics(machines, 4, 600, at, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var pos, cxTErr []float64
	minPOS, maxPOS := 101.0, -1.0
	for _, r := range rows {
		if r.POS <= 0 || r.POS > 100 {
			t.Fatalf("%s POS = %v out of range", r.Machine, r.POS)
		}
		if r.CXTotal < r.CXDepth {
			t.Fatalf("%s CX totals inconsistent: total %d < depth %d", r.Machine, r.CXTotal, r.CXDepth)
		}
		pos = append(pos, r.POS)
		cxTErr = append(cxTErr, r.CXTotalErr)
		if r.POS < minPOS {
			minPOS = r.POS
		}
		if r.POS > maxPOS {
			maxPOS = r.POS
		}
	}
	// Fig 7: POS varies widely across machines (62% to 19% in the
	// paper; we require a clear spread).
	if maxPOS < 1.2*minPOS {
		t.Fatalf("POS spread too narrow: %v..%v", minPOS, maxPOS)
	}
	// POS anti-correlates with the CX-Total x CX-Err metric.
	if c := stats.Pearson(pos, cxTErr); c >= 0 {
		t.Fatalf("POS vs CX-T*Err correlation = %v, want negative", c)
	}
}

func TestFig12bLayoutDivergence(t *testing.T) {
	m := backend.FleetByName()["ibmq_toronto"]
	t0 := time.Date(2021, 2, 1, 12, 0, 0, 0, time.UTC)
	div, err := LayoutDivergenceOf(gens.QFT(4), m, t0, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(div.Layouts) != 12 {
		t.Fatalf("layouts = %d", len(div.Layouts))
	}
	// Fig 12b: noise-aware mappings change across calibration cycles.
	if div.ChangedFraction == 0 {
		t.Fatal("layouts never changed across calibrations")
	}
	if _, err := LayoutDivergenceOf(gens.QFT(4), m, t0, 1, 5); err == nil {
		t.Fatal("days < 2 should error")
	}
}

func TestStaleCompilationPenalty(t *testing.T) {
	// §V-E.2: executing a stale compilation under fresh noise costs
	// fidelity on average, motivating dynamic re-compilation.
	m := backend.FleetByName()["ibmq_toronto"]
	t0 := time.Date(2021, 3, 1, 15, 0, 0, 0, time.UTC)
	res, err := StaleCompilationPenalty(m, 4, 3, 10, 400, t0, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.Days != 10 {
		t.Fatalf("days = %d", res.Days)
	}
	if res.FreshPOS <= 0 || res.FreshPOS > 1 || res.StalePOS <= 0 || res.StalePOS > 1 {
		t.Fatalf("POS out of range: fresh %v stale %v", res.FreshPOS, res.StalePOS)
	}
	if res.StalePOS >= res.FreshPOS {
		t.Fatalf("stale compilation (%v) should underperform fresh (%v) on average",
			res.StalePOS, res.FreshPOS)
	}
	if _, err := StaleCompilationPenalty(m, 4, 0, 5, 100, t0, 1); err == nil {
		t.Fatal("staleDays < 1 should error")
	}
}
