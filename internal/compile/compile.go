// Package compile implements a pass-based quantum transpiler modeled on
// the Qiskit level-3 pipeline the paper profiles in Fig 5. Every pass
// is individually wall-clock timed, so CompilePassProfile can reproduce
// the per-pass cost comparison between a 64-qubit and a ~1000-qubit
// compilation.
//
// The pipeline: three-qubit unrolling, layout selection (CSP search
// with fallback to noise-adaptive or dense subgraph), ancilla
// allocation and layout application, stochastic swap routing, basis
// translation to the IBM {rz, sx, x, cx} basis, and a fixed-point
// optimization loop (1q resynthesis, commutative cancellation, diagonal
// gate removal).
package compile

import (
	"fmt"
	"math/rand"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
)

// pass is one transpilation stage. Run mutates the passContext in place.
type pass interface {
	Name() string
	Run(ctx *passContext) error
}

// passContext is the mutable state threaded through the pass pipeline.
type passContext struct {
	// Circ is the circuit being transformed. Before ApplyLayout it is
	// logical-width; after, machine-width with physical indices.
	Circ *circuit.Circuit
	// Machine is the compilation target.
	Machine *backend.Machine
	// Calib is the calibration snapshot used by noise-aware passes
	// (may be nil, in which case noise-aware passes fall back).
	Calib *backend.Calibration
	// Layout maps logical qubit -> physical qubit once a layout pass
	// has run.
	Layout []int
	// Applied records whether ApplyLayout has rewritten the circuit to
	// physical indices.
	Applied bool
	// Rand drives the stochastic passes deterministically.
	Rand *rand.Rand
	// Props accumulates analysis-pass results (depth, block counts...).
	Props map[string]int
	// excluded marks physical qubits no pass may assign or route onto.
	excluded []bool
	// dists caches the machine's all-pairs distances.
	dists [][]int
	// ops is the running pass's work count (see PassTiming.Ops).
	ops int64
}

// IsExcluded reports whether physical qubit q is off-limits.
func (ctx *passContext) IsExcluded(q int) bool {
	return q < len(ctx.excluded) && ctx.excluded[q]
}

// Distances returns (and caches) the machine's all-pairs hop distances.
func (ctx *passContext) Distances() [][]int {
	if ctx.dists == nil {
		ctx.dists = ctx.Machine.Topo.Distances()
		ctx.ops += int64(len(ctx.dists)) * int64(len(ctx.dists))
	}
	return ctx.dists
}

// PassTiming records the cumulative cost of one named pass: its wall
// time, and Ops, a count of the work it did that depends on the
// compilation alone, so no load on the host moves it. Each run of a
// pass counts the gates it is handed, and the passes count what they
// do beyond one walk over them: StochasticSwap each trial's walk and
// the neighbors it scans at every hop, and whichever pass first needs
// the machine's all-pairs distance table its entries.
type PassTiming struct {
	Name    string
	Seconds float64
	Ops     int64
}

// Result is the outcome of a full compilation.
type Result struct {
	// Circ is the physical circuit in the target basis.
	Circ *circuit.Circuit
	// Layout is the initial logical->physical mapping chosen.
	Layout []int
	// Timings lists cumulative per-pass cost in pipeline order.
	Timings []PassTiming
	// Metrics are the structural metrics of the compiled circuit.
	Metrics circuit.Metrics
	// SwapsInserted counts SWAP gates added by routing.
	SwapsInserted int
	// LayoutMethod names the layout pass that produced Layout.
	LayoutMethod string
}

// Options tunes the pipeline.
type Options struct {
	// Seed drives stochastic passes; the same seed reproduces the same
	// compilation byte for byte.
	Seed int64
	// SkipCSP disables the CSP layout search (useful for benchmarks
	// isolating other passes).
	SkipCSP bool
	// Excluded lists physical qubits the compilation must not touch
	// (multi-programming: another program occupies them). Callers
	// should pair this with a coupling map whose edges avoid the
	// excluded qubits so routing cannot traverse them.
	Excluded []int
}

// optimizeIterations caps the fixed-point optimization loop.
const optimizeIterations = 5

// routingTrials is the number of full stochastic-swap attempts (best
// kept) for an input circuit of nGates gates, counted before
// unrolling: one above 50 000, four otherwise.
func routingTrials(nGates int) int {
	if nGates > 50_000 {
		return 1
	}
	return 4
}

// Compile runs the full pipeline of c against machine m with
// calibration cal (nil for noise-oblivious compilation).
func Compile(c *circuit.Circuit, m *backend.Machine, cal *backend.Calibration, opts Options) (*Result, error) {
	if c.NQubits > m.NumQubits() {
		return nil, fmt.Errorf("compile: circuit needs %d qubits but %s has %d", c.NQubits, m.Name, m.NumQubits())
	}
	ctx := &passContext{
		Circ:    c.Clone(),
		Machine: m,
		Calib:   cal,
		Rand:    rand.New(rand.NewSource(opts.Seed)),
		Props:   make(map[string]int),
	}
	if len(opts.Excluded) > 0 {
		ctx.excluded = make([]bool, m.NumQubits())
		free := m.NumQubits()
		for _, q := range opts.Excluded {
			if q >= 0 && q < len(ctx.excluded) && !ctx.excluded[q] {
				ctx.excluded[q] = true
				free--
			}
		}
		if c.NQubits > free {
			return nil, fmt.Errorf("compile: circuit needs %d qubits but only %d remain after exclusions", c.NQubits, free)
		}
	}
	res := &Result{}
	// index maps a pass name to its entry in res.Timings.
	index := make(map[string]int)
	runPass := func(p pass) error {
		ctx.ops = int64(len(ctx.Circ.Gates))
		start := time.Now()
		err := p.Run(ctx)
		sec := time.Since(start).Seconds()
		i, seen := index[p.Name()]
		if !seen {
			i = len(res.Timings)
			index[p.Name()] = i
			res.Timings = append(res.Timings, PassTiming{Name: p.Name()})
		}
		res.Timings[i].Seconds += sec
		res.Timings[i].Ops += ctx.ops
		return err
	}

	pipeline := []pass{
		&unroll3qOrMore{},
		&removeResetInZeroState{},
		&unrollCustomDefinitions{},
	}
	if !opts.SkipCSP {
		pipeline = append(pipeline, &cspLayout{})
	}
	pipeline = append(pipeline,
		&noiseAdaptiveLayout{},
		&denseLayout{},
		&trivialLayout{},
		&setLayout{},
		&fullAncillaAllocate{},
		&enlargeWithAncilla{},
		&applyLayout{},
		&checkMap{},
		&stochasticSwap{Trials: routingTrials(len(c.Gates))},
		&basisTranslator{},
	)
	for _, p := range pipeline {
		if err := runPass(p); err != nil {
			return nil, fmt.Errorf("compile: pass %s: %w", p.Name(), err)
		}
	}

	// Fixed-point optimization loop, as Qiskit's level 3 does: iterate
	// until depth and size stop improving (bounded by optimizeIterations).
	optLoop := []pass{
		&depth{},
		&collect2qBlocks{},
		&consolidateBlocks{},
		&unitarySynthesis{},
		&optimize1qGates{},
		&commutationAnalysis{},
		&commutativeCancellation{},
		&removeDiagonalGatesBeforeMeasure{},
		&fixedPoint{},
	}
	prevDepth, prevSize := -1, -1
	for iter := 0; iter < optimizeIterations; iter++ {
		for _, p := range optLoop {
			if err := runPass(p); err != nil {
				return nil, fmt.Errorf("compile: pass %s: %w", p.Name(), err)
			}
		}
		d, s := ctx.Props["depth"], len(ctx.Circ.Gates)
		if d == prevDepth && s == prevSize {
			break
		}
		prevDepth, prevSize = d, s
	}

	final := []pass{
		&barrierBeforeFinalMeasurements{},
		&checkMap{},
	}
	for _, p := range final {
		if err := runPass(p); err != nil {
			return nil, fmt.Errorf("compile: pass %s: %w", p.Name(), err)
		}
	}

	res.Circ = ctx.Circ
	res.Layout = ctx.Layout
	res.Metrics = circuit.ComputeMetrics(ctx.Circ)
	res.SwapsInserted = ctx.Props["swaps_inserted"]
	res.LayoutMethod = layoutMethodName(ctx)
	return res, nil
}

func layoutMethodName(ctx *passContext) string {
	switch ctx.Props["layout_method"] {
	case layoutCSP:
		return "CSPLayout"
	case layoutNoise:
		return "NoiseAdaptiveLayout"
	case layoutDense:
		return "DenseLayout"
	case layoutTrivial:
		return "TrivialLayout"
	default:
		return "none"
	}
}

// Layout method identifiers stored in Props["layout_method"]; zero is
// a missing entry, no layout pass ran.
const (
	layoutCSP = iota + 1
	layoutNoise
	layoutDense
	layoutTrivial
)
