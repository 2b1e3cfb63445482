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

// Pass is one transpilation stage. Run mutates the Context in place.
type Pass interface {
	Name() string
	Run(ctx *Context) error
}

// Context is the mutable state threaded through the pass pipeline.
type Context struct {
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
}

// IsExcluded reports whether physical qubit q is off-limits.
func (ctx *Context) IsExcluded(q int) bool {
	return q < len(ctx.excluded) && ctx.excluded[q]
}

// Distances returns (and caches) the machine's all-pairs hop distances.
func (ctx *Context) Distances() [][]int {
	if ctx.dists == nil {
		ctx.dists = ctx.Machine.Topo.Distances()
	}
	return ctx.dists
}

// PassTiming records the cumulative wall time spent in one named pass.
type PassTiming struct {
	Name    string
	Seconds float64
}

// Result is the outcome of a full compilation.
type Result struct {
	// Circ is the physical circuit in the target basis.
	Circ *circuit.Circuit
	// Layout is the initial logical->physical mapping chosen.
	Layout []int
	// Timings lists cumulative per-pass wall time in pipeline order.
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
	// RoutingTrials is the number of full stochastic-swap attempts
	// (best kept). 0 picks an adaptive default.
	RoutingTrials int
	// CSPBudget bounds the CSP layout search in visited search nodes.
	// 0 picks a default that scales with machine size.
	CSPBudget int
	// OptimizeIterations caps the fixed-point optimization loop.
	OptimizeIterations int
	// SkipCSP disables the CSP layout search (useful for benchmarks
	// isolating other passes).
	SkipCSP bool
	// Excluded lists physical qubits the compilation must not touch
	// (multi-programming: another program occupies them). Callers
	// should pair this with a coupling map whose edges avoid the
	// excluded qubits so routing cannot traverse them.
	Excluded []int
	// Router selects the routing pass: "stochastic" (default — the
	// Qiskit router of the paper's study period, Fig 5) or "sabre"
	// (lookahead routing, usually fewer swaps).
	Router string
}

func (o Options) withDefaults(nGates int) Options {
	if o.RoutingTrials <= 0 {
		if nGates > 50_000 {
			o.RoutingTrials = 1
		} else {
			o.RoutingTrials = 4
		}
	}
	if o.CSPBudget <= 0 {
		o.CSPBudget = 200_000
	}
	if o.OptimizeIterations <= 0 {
		o.OptimizeIterations = 5
	}
	return o
}

// Compile runs the full pipeline of c against machine m with
// calibration cal (nil for noise-oblivious compilation).
func Compile(c *circuit.Circuit, m *backend.Machine, cal *backend.Calibration, opts Options) (*Result, error) {
	if c.NQubits > m.NumQubits() {
		return nil, fmt.Errorf("compile: circuit needs %d qubits but %s has %d", c.NQubits, m.Name, m.NumQubits())
	}
	o := opts.withDefaults(len(c.Gates))
	ctx := &Context{
		Circ:    c.Clone(),
		Machine: m,
		Calib:   cal,
		Rand:    rand.New(rand.NewSource(o.Seed)),
		Props:   make(map[string]int),
	}
	if len(o.Excluded) > 0 {
		ctx.excluded = make([]bool, m.NumQubits())
		free := m.NumQubits()
		for _, q := range o.Excluded {
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
	timings := make(map[string]float64)
	var order []string
	runPass := func(p Pass) error {
		start := time.Now()
		err := p.Run(ctx)
		sec := time.Since(start).Seconds()
		if _, seen := timings[p.Name()]; !seen {
			order = append(order, p.Name())
		}
		timings[p.Name()] += sec
		return err
	}

	pipeline := []Pass{
		&Unroll3qOrMore{},
		&RemoveResetInZeroState{},
		&UnrollCustomDefinitions{},
	}
	if !o.SkipCSP {
		pipeline = append(pipeline, &CSPLayout{Budget: o.CSPBudget})
	}
	var router Pass
	switch o.Router {
	case "", "stochastic":
		router = &StochasticSwap{Trials: o.RoutingTrials}
	case "sabre":
		router = &SabreSwap{}
	default:
		return nil, fmt.Errorf("compile: unknown router %q", o.Router)
	}
	pipeline = append(pipeline,
		&NoiseAdaptiveLayout{},
		&DenseLayout{},
		&TrivialLayout{},
		&SetLayout{},
		&FullAncillaAllocate{},
		&EnlargeWithAncilla{},
		&ApplyLayout{},
		&CheckMap{},
		router,
		&BasisTranslator{},
	)
	for _, p := range pipeline {
		if err := runPass(p); err != nil {
			return nil, fmt.Errorf("compile: pass %s: %w", p.Name(), err)
		}
	}

	// Fixed-point optimization loop, as Qiskit's level 3 does: iterate
	// until depth and size stop improving (bounded by OptimizeIterations).
	optLoop := []Pass{
		&Depth{},
		&Collect2qBlocks{},
		&ConsolidateBlocks{},
		&UnitarySynthesis{},
		&Optimize1qGates{},
		&CommutationAnalysis{},
		&CommutativeCancellation{},
		&RemoveDiagonalGatesBeforeMeasure{},
		&FixedPoint{},
	}
	prevDepth, prevSize := -1, -1
	for iter := 0; iter < o.OptimizeIterations; iter++ {
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

	final := []Pass{
		&BarrierBeforeFinalMeasurements{},
		&CheckMap{},
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
	for _, name := range order {
		res.Timings = append(res.Timings, PassTiming{Name: name, Seconds: timings[name]})
	}
	return res, nil
}

func layoutMethodName(ctx *Context) string {
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
