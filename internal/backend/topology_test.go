package backend

import (
	"testing"
	"testing/quick"
)

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(-1, nil); err == nil {
		t.Fatal("negative size should fail")
	}
	if _, err := NewTopology(3, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop should fail")
	}
	if _, err := NewTopology(3, [][2]int{{0, 3}}); err == nil {
		t.Fatal("out-of-range should fail")
	}
	// Duplicate and reversed edges collapse.
	tp, err := NewTopology(3, [][2]int{{0, 1}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Edges) != 1 {
		t.Fatalf("edges = %v, want single edge", tp.Edges)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	tp := tShape5()
	if got := tp.Neighbors(1); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if got := tp.Neighbors(4); len(got) != 1 {
		t.Fatalf("Degree(4) = %d", len(got))
	}
	if !tp.HasEdge(1, 3) || tp.HasEdge(0, 4) {
		t.Fatal("HasEdge wrong")
	}
}

func TestConnectivity(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"line":      Line(10),
		"ring":      ring(8),
		"grid":      grid(3, 4),
		"tshape":    tShape5(),
		"bowtie":    bowtie5(),
		"hshape":    hShape7(),
		"melbourne": melbourne15(),
		"guadalupe": guadalupe16(),
		"falcon":    falcon27(),
		"tokyo":     tokyo20(),
		"penguin":   penguin20(),
		"full":      fullyConnected(6),
	} {
		if !tp.IsConnected() {
			t.Fatalf("%s topology is disconnected", name)
		}
	}
	disc := mustTopology(4, [][2]int{{0, 1}, {2, 3}})
	if disc.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !mustTopology(1, nil).IsConnected() {
		t.Fatal("single qubit should be connected")
	}
}

func TestDistances(t *testing.T) {
	tp := Line(5)
	d := tp.Distances()
	if d[0][4] != 4 || d[2][2] != 0 || d[1][3] != 2 {
		t.Fatalf("line distances wrong: %v", d)
	}
	disc := mustTopology(3, [][2]int{{0, 1}})
	if disc.Distances()[0][2] != -1 {
		t.Fatal("unreachable pair should be -1")
	}
}

func TestBisectionLine(t *testing.T) {
	// Cutting a line in half severs exactly one edge.
	if got := Line(10).BisectionBandwidth(); got != 1 {
		t.Fatalf("line bisection = %d, want 1", got)
	}
}

func TestBisectionRing(t *testing.T) {
	if got := ring(10).BisectionBandwidth(); got != 2 {
		t.Fatalf("ring bisection = %d, want 2", got)
	}
}

func TestBisectionGridMatchesPaperExample(t *testing.T) {
	// The paper: "a 64-node classical system employing a standard mesh
	// topology would have a bisection bandwidth of 8".
	if got := grid(8, 8).BisectionBandwidth(); got != 8 {
		t.Fatalf("8x8 mesh bisection = %d, want 8", got)
	}
}

func TestBisectionManhattanLow(t *testing.T) {
	// The paper reports bisection bandwidth 3 for the 65q Manhattan.
	// Our heavy-hex-like 65q generator should land in the same low
	// range (small relative to the mesh's 8).
	got := HeavyHexLike(65).BisectionBandwidth()
	if got < 1 || got > 5 {
		t.Fatalf("heavy-hex 65q bisection = %d, want 1..5", got)
	}
}

func TestBisectionExactSmall(t *testing.T) {
	// K4: balanced split cuts exactly 4 edges.
	if got := fullyConnected(4).BisectionBandwidth(); got != 4 {
		t.Fatalf("K4 bisection = %d, want 4", got)
	}
	if got := mustTopology(1, nil).BisectionBandwidth(); got != 0 {
		t.Fatalf("singleton bisection = %d, want 0", got)
	}
}

func TestHeavyHexLikeSizes(t *testing.T) {
	for _, n := range []int{2, 16, 27, 53, 65, 128, 1000} {
		tp := HeavyHexLike(n)
		if tp.N != n {
			t.Fatalf("HeavyHexLike(%d).N = %d", n, tp.N)
		}
		if !tp.IsConnected() {
			t.Fatalf("HeavyHexLike(%d) disconnected", n)
		}
		// Heavy-hex sparsity: average degree stays below 3.
		if n >= 16 && 2*len(tp.Edges) > 3*n {
			t.Fatalf("HeavyHexLike(%d) too dense: %d edges", n, len(tp.Edges))
		}
	}
}

func TestHeavyHexConnectedProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%500) + 2
		tp := HeavyHexLike(n)
		return tp.N == n && tp.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	tp := mustTopology(5, [][2]int{{0, 1}, {3, 4}})
	comps := components(tp)
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
}

// ring returns an n-qubit cycle.
func ring(n int) *Topology {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return mustTopology(n, edges)
}

// grid returns a rows x cols mesh; qubit r*cols+c.
func grid(rows, cols int) *Topology {
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return mustTopology(rows*cols, edges)
}
