package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/compile"
	"qcloud/internal/par"
	"qcloud/internal/qsim"
)

// PassCost is one compiler pass's cost at the small and large problem
// size (Fig 5's paired bars): wall time, and the work count
// compile.PassTiming.Ops, which host load does not move.
type PassCost struct {
	Pass               string
	SmallSec, LargeSec float64
	SmallOps, LargeOps int64
}

// CompilePassProfile compiles a QFT of smallN qubits onto smallM and a
// QFT of largeN onto largeM (nil largeM uses the fake 1000q machine),
// returning cumulative per-pass wall times and work counts. The
// paper's instance is (64q QFT -> 65q Manhattan) vs (980q QFT -> fake
// 1000q machine); that full-size run takes hours exactly as the paper
// reports, so callers may scale the large size down and extrapolate
// the trend.
func CompilePassProfile(smallN int, smallM *backend.Machine, largeN int, largeM *backend.Machine, seed int64) ([]PassCost, error) {
	if largeM == nil {
		largeM = backend.Fake1000()
	}
	// The two compiles are independent; with workers > 1 they run
	// concurrently (the large one dominates, so the small one overlaps
	// for free). -workers 1 keeps them sequential, which is what you
	// want for uncontended per-pass wall-clock profiles.
	var small, large *compile.Result
	errs := make([]error, 2)
	par.ForEach(2, 0, func(i int) {
		if i == 0 {
			var err error
			small, err = compile.Compile(gens.QFT(smallN), smallM, nil, compile.Options{Seed: seed})
			if err != nil {
				errs[0] = fmt.Errorf("small compile: %w", err)
			}
		} else {
			var err error
			large, err = compile.Compile(gens.QFT(largeN), largeM, nil, compile.Options{Seed: seed})
			if err != nil {
				errs[1] = fmt.Errorf("large compile: %w", err)
			}
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	byName := make(map[string]*PassCost)
	var order []string
	add := func(timings []compile.PassTiming, large bool) {
		for _, t := range timings {
			pc, ok := byName[t.Name]
			if !ok {
				pc = &PassCost{Pass: t.Name}
				byName[t.Name] = pc
				order = append(order, t.Name)
			}
			if large {
				pc.LargeSec += t.Seconds
				pc.LargeOps += t.Ops
			} else {
				pc.SmallSec += t.Seconds
				pc.SmallOps += t.Ops
			}
		}
	}
	add(small.Timings, false)
	add(large.Timings, true)
	out := make([]PassCost, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}

// BisectionRow is one machine's Fig 6 entry.
type BisectionRow struct {
	Machine            string
	Qubits             int
	BisectionBandwidth int
}

// BisectionTable computes qubits vs bisection bandwidth across the
// fleet (Fig 6), skipping the simulator pseudo-backend.
func BisectionTable(machines []*backend.Machine) []BisectionRow {
	var rows []BisectionRow
	for _, m := range machines {
		if m.Simulator {
			continue
		}
		rows = append(rows, BisectionRow{
			Machine:            m.Name,
			Qubits:             m.NumQubits(),
			BisectionBandwidth: m.Topo.BisectionBandwidth(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Qubits != rows[j].Qubits {
			return rows[i].Qubits < rows[j].Qubits
		}
		return rows[i].Machine < rows[j].Machine
	})
	return rows
}

// FidelityRow is one machine's Fig 7 entry: measured probability of
// success of the 4q QFT benchmark next to its compile-time CX metrics.
type FidelityRow struct {
	Machine string
	Qubits  int
	// POS is the trajectory-simulated probability of success (%).
	POS float64
	// CXDepth and CXTotal are the compiled circuit's CX metrics.
	CXDepth, CXTotal int
	// CXDepthErr / CXTotalErr are the metrics scaled by the mean CX
	// error of the qubits the circuit uses (the paper's "CX-D * CX-Err"
	// and "CX-T * CX-Err", in percent).
	CXDepthErr, CXTotalErr float64
}

// FidelityVsCXMetrics compiles the n-qubit QFT POS benchmark onto each
// machine under its calibration at time at, runs the noisy trajectory
// simulations, and reports POS alongside the CX metrics (Fig 7; the
// paper uses casablanca, toronto, guadalupe, rome and manhattan).
// Compiles fan out on a worker pool, then every machine's shots are
// submitted to one shared trajectory pool (qsim.BatchRun) instead of
// nesting a serial pool per machine. Each machine's RNG stream is
// seeded by (seed, machine), so rows are deterministic: identical to a
// serial sweep and to the old per-machine pools.
func FidelityVsCXMetrics(machines []*backend.Machine, n, shots int, at time.Time, seed int64) ([]FidelityRow, error) {
	rows := make([]FidelityRow, len(machines))
	errs := make([]error, len(machines))
	comps := make([]*compile.Result, len(machines))
	cals := make([]*backend.Calibration, len(machines))
	jobs := make([]qsim.BatchJob, len(machines))
	par.ForEach(len(machines), 0, func(i int) {
		m := machines[i]
		cal := m.CalibrationAt(at)
		res, err := compile.Compile(gens.QFTBench(n), m, cal, compile.Options{Seed: seed})
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", m.Name, err)
			return
		}
		comps[i], cals[i] = res, cal
		compacted, origOf := qsim.Compact(res.Circ)
		jobs[i] = qsim.BatchJob{
			Circ:  compacted,
			Shots: shots,
			Noise: qsim.NoiseFromCalibration(cal, 0).Remap(origOf),
			Seed:  seed + m.Seed,
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	batch := qsim.BatchRun(jobs, qsim.Parallelism{})
	for i, m := range machines {
		if batch[i].Err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, batch[i].Err)
		}
		res, cal := comps[i], cals[i]
		pos := batch[i].Counts.Prob(strings.Repeat("0", n))
		// Mean CX error over the couplers the compiled circuit uses.
		errSum, errN := 0.0, 0
		for _, g := range res.Circ.Gates {
			if g.Op.IsTwoQubit() {
				errSum += cal.CXError(g.Qubits[0], g.Qubits[1], cal.MeanCXError())
				errN++
			}
		}
		meanErr := 0.0
		if errN > 0 {
			meanErr = errSum / float64(errN)
		}
		rows[i] = FidelityRow{
			Machine: m.Name, Qubits: m.NumQubits(),
			POS:        pos * 100,
			CXDepth:    res.Metrics.CXDepth,
			CXTotal:    res.Metrics.CXCount,
			CXDepthErr: float64(res.Metrics.CXDepth) * meanErr * 100,
			CXTotalErr: float64(res.Metrics.CXCount) * meanErr * 100,
		}
	}
	return rows, nil
}

// LayoutDivergence re-compiles the same circuit with the
// noise-adaptive layout across consecutive calibration epochs and
// reports how often the chosen mapping changes (Fig 12b: stale
// compilations bind to qubit assignments that are no longer optimal).
type LayoutDivergence struct {
	// ChangedFraction is the fraction of consecutive epoch pairs whose
	// layouts differ.
	ChangedFraction float64
	// Layouts holds the logical->physical mapping per epoch.
	Layouts [][]int
}

// LayoutDivergenceOf measures layout churn for circuit c on machine m
// over the given number of consecutive calibration days starting at t0.
func LayoutDivergenceOf(c *circuit.Circuit, m *backend.Machine, t0 time.Time, days int, seed int64) (*LayoutDivergence, error) {
	if days < 2 {
		return nil, fmt.Errorf("analysis: need at least 2 days, got %d", days)
	}
	out := &LayoutDivergence{}
	changed := 0
	for d := 0; d < days; d++ {
		cal := m.CalibrationAt(t0.Add(time.Duration(d) * 24 * time.Hour))
		res, err := compile.Compile(c, m, cal, compile.Options{Seed: seed, SkipCSP: true})
		if err != nil {
			return nil, err
		}
		out.Layouts = append(out.Layouts, res.Layout)
		if d > 0 && !equalLayouts(out.Layouts[d-1], out.Layouts[d]) {
			changed++
		}
	}
	out.ChangedFraction = float64(changed) / float64(days-1)
	return out, nil
}

func equalLayouts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// StalenessResult quantifies the §V-E.2 / Fig 12 recommendation: how
// much fidelity a job loses by executing a compilation made against an
// older calibration cycle, versus re-compiling fresh.
type StalenessResult struct {
	// FreshPOS / StalePOS are mean probabilities of success across the
	// sampled days.
	FreshPOS, StalePOS float64
	// Days is the number of calibration days sampled.
	Days int
}

// StaleCompilationPenalty compiles the n-qubit QFT benchmark twice for
// each sampled day d: once against day d's calibration (fresh) and once
// against day d-staleDays' calibration (stale); both are executed under
// day d's noise. The gap is the fidelity cost of calibration
// crossovers, the quantity motivating dynamic re-compilation.
func StaleCompilationPenalty(m *backend.Machine, n, staleDays, days, shots int, t0 time.Time, seed int64) (*StalenessResult, error) {
	if days < 1 || staleDays < 1 {
		return nil, fmt.Errorf("analysis: need days >= 1 and staleDays >= 1")
	}
	bench := gens.QFTBench(n)
	expected := strings.Repeat("0", n)
	// Days are independent (each has its own seeded RNG streams): the
	// fresh/stale compiles fan out per day, then all 2*days small-shot
	// simulations go to one shared trajectory pool. Per-day results are
	// summed in day order to keep the means bit-identical to a serial
	// sweep (and to the old nested per-day pools).
	errs := make([]error, days)
	jobs := make([]qsim.BatchJob, 2*days)
	par.ForEach(days, 0, func(d int) {
		execAt := t0.Add(time.Duration(d) * 24 * time.Hour)
		calNow := m.CalibrationAt(execAt)
		calOld := m.CalibrationAt(execAt.Add(-time.Duration(staleDays) * 24 * time.Hour))
		staleHours := float64(staleDays) * 24

		fresh, err := compile.Compile(bench, m, calNow, compile.Options{Seed: seed, SkipCSP: true})
		if err != nil {
			errs[d] = err
			return
		}
		stale, err := compile.Compile(bench, m, calOld, compile.Options{Seed: seed, SkipCSP: true})
		if err != nil {
			errs[d] = err
			return
		}
		// Both run under *today's* noise; the stale compilation also
		// suffers drift relative to its pulse-era calibration.
		fc, fm := qsim.Compact(fresh.Circ)
		sc, sm := qsim.Compact(stale.Circ)
		jobs[2*d] = qsim.BatchJob{
			Circ: fc, Shots: shots,
			Noise: qsim.NoiseFromCalibration(calNow, 0).Remap(fm),
			Seed:  seed + int64(d)*17,
		}
		jobs[2*d+1] = qsim.BatchJob{
			Circ: sc, Shots: shots,
			Noise: qsim.NoiseFromCalibration(calNow, staleHours).Remap(sm),
			Seed:  seed + int64(d)*17 + 1,
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	batch := qsim.BatchRun(jobs, qsim.Parallelism{})
	var freshSum, staleSum float64
	for d := 0; d < days; d++ {
		if err := batch[2*d].Err; err != nil {
			return nil, err
		}
		if err := batch[2*d+1].Err; err != nil {
			return nil, err
		}
		freshSum += batch[2*d].Counts.Prob(expected)
		staleSum += batch[2*d+1].Counts.Prob(expected)
	}
	return &StalenessResult{
		FreshPOS: freshSum / float64(days),
		StalePOS: staleSum / float64(days),
		Days:     days,
	}, nil
}
