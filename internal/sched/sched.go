// Package sched implements the vendor-side, machine-aware job
// placement the paper recommends (§IV-D: "opportunities for
// vendor-employed machine-aware system wide management of resources
// (with user-constraints) should be explored") together with the
// queue-time prediction of §V-E.
//
// One placement pipeline runs every policy: it opens a cloud.Session,
// walks the workload in arrival order, asks the Policy for each job's
// machine and submits it. A policy reads queues through a View, and
// there are two. The Estimator is the offline one: stale sampled
// pending counts and mean service times from a background-only
// pre-simulation (Evaluate). The live one reads the open session's
// QueueState at each job's submit instant — the vendor-side,
// machine-aware management the paper argues for, with no
// pre-simulation at all (EvaluateOnline).
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

// FleetInfo is the static, no-simulation-needed machine knowledge
// every placement policy shares — the fleet roster, calibration
// access, and mean background service times. The Estimator layers
// pre-simulated queue statistics on top of it; the live view combines
// it with QueueState snapshots instead.
type FleetInfo struct {
	machines map[string]*backend.Machine
	meanExec map[string]float64
	// ordered is the roster in fleet-config order: placement scans must
	// visit machines in a fixed sequence so tie-breaks (first candidate
	// at equal score) are deterministic, not map-iteration-order.
	ordered []*backend.Machine
}

// NewFleetInfo indexes the config's fleet and background model.
func NewFleetInfo(cfg cloud.Config) *FleetInfo {
	machines := cfg.Machines
	if machines == nil {
		machines = backend.Fleet()
	}
	bg := cfg.Background
	if bg == nil {
		bg = cloud.DefaultBackground()
	}
	f := &FleetInfo{
		machines: make(map[string]*backend.Machine, len(machines)),
		meanExec: make(map[string]float64, len(machines)),
	}
	for _, m := range machines {
		f.machines[m.Name] = m
		f.meanExec[m.Name] = bg.MeanExecSeconds(m)
		f.ordered = append(f.ordered, m)
	}
	return f
}

// Estimator predicts per-machine waiting times from observed queue
// state — the §V-E.1 "research on predicting queuing times" primitive.
// It extends FleetInfo with queue-length time series and wait-ratio
// calibration from a background-only pre-simulation.
type Estimator struct {
	*FleetInfo
	pending   map[string][]trace.PendingSample
	waitRatio map[string][3]float64 // empirical P10/P50/P90 of wait/(pending*mean)
}

// BuildEstimator runs a background-only simulation over the config's
// window and indexes the resulting queue-length time series. The study
// jobs themselves are a negligible perturbation of the background load
// (thousands vs millions), so the estimate remains valid once they are
// placed.
func BuildEstimator(cfg cloud.Config) (*Estimator, error) {
	if cfg.PendingSampleEvery <= 0 {
		// Queue lengths move fast; the default 6h trace sampling is too
		// stale for placement decisions.
		cfg.PendingSampleEvery = 30 * time.Minute
	}
	sess, err := cloud.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("sched: background simulation: %w", err)
	}
	defer sess.Close()
	tr, err := sess.Run()
	if err != nil {
		return nil, fmt.Errorf("sched: background simulation: %w", err)
	}
	e := &Estimator{
		FleetInfo: NewFleetInfo(cfg),
		pending:   make(map[string][]trace.PendingSample),
		waitRatio: make(map[string][3]float64),
	}
	for _, ms := range tr.Machines {
		e.pending[ms.Name] = ms.PendingSamples
		if ms.WaitRatioP90 > 0 {
			e.waitRatio[ms.Name] = [3]float64{ms.WaitRatioP10, ms.WaitRatioP50, ms.WaitRatioP90}
		}
	}
	return e, nil
}

// PendingAt returns the most recent sampled queue length at or before
// t (0 if no sample exists yet).
func (e *Estimator) PendingAt(machine string, t time.Time) int {
	samples := e.pending[machine]
	// Samples are time-ordered; binary search the last one <= t.
	lo, hi := 0, len(samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if samples[mid].Time.After(t) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return samples[lo-1].Pending
}

// Queue implements View from the sampled series. The wait it predicts
// for a job submitted to the machine at time t is pending jobs times
// the machine's mean service time: exactly the estimate a vendor can
// compute from public queue lengths plus the Fig 15 runtime predictor.
// The samples carry no fault state, so a machine is never Down.
func (e *Estimator) Queue(machine string, t time.Time) (Reading, error) {
	n := e.PendingAt(machine, t)
	return Reading{Pending: n, WaitSeconds: float64(n) * e.meanExec[machine]}, nil
}

// EstimatedFidelity scores the expected per-circuit success of a job on
// a machine from its calibration: (1-meanCXerr)^(CX per circuit) — the
// §IV-B compile-time CX metric used for machine selection.
func (f *FleetInfo) EstimatedFidelity(spec *cloud.JobSpec, machine string, t time.Time) float64 {
	return f.fidelity(machine, t, spec.BatchSize, spec.CXTotal)
}

// fidelity is EstimatedFidelity over a job's two features, which a
// trace record carries as well as a spec.
func (f *FleetInfo) fidelity(machine string, t time.Time, batchSize, cxTotal int) float64 {
	m := f.machines[machine]
	if m == nil {
		return 0
	}
	cal := m.CalibrationAt(t)
	cxPerCircuit := 0.0
	if batchSize > 0 {
		cxPerCircuit = float64(cxTotal) / float64(batchSize)
	}
	return math.Pow(1-cal.MeanCXError(), cxPerCircuit)
}

// Candidates returns the machines the job may legally target at its
// submit time: online, wide enough, and accessible to the user class.
func (f *FleetInfo) Candidates(spec *cloud.JobSpec) []*backend.Machine {
	var out []*backend.Machine
	for _, m := range f.ordered {
		if !m.AvailableAt(spec.SubmitTime) || m.NumQubits() < spec.Width {
			continue
		}
		if !m.Public && !spec.Privileged {
			continue
		}
		if m.Simulator {
			continue // hardware placement only
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reading is one machine's queue as a View sees it at an instant.
type Reading struct {
	// Pending counts the jobs queued ahead of a new arrival.
	Pending int
	// WaitSeconds predicts the queue wait of a job submitted now.
	WaitSeconds float64
	// Down reports an unplanned outage in progress.
	Down bool
}

// View is what a Policy knows about the fleet at a decision instant:
// a machine's queue and the fidelity a job can expect there. The
// Estimator is one view; the live view over an open session
// (evaluate.go) is the other.
type View interface {
	Queue(machine string, t time.Time) (Reading, error)
	EstimatedFidelity(spec *cloud.JobSpec, machine string, t time.Time) float64
}

// Policy picks a machine for a job from the legal candidates, reading
// queues through the view at the job's submit instant. A nil return
// keeps the user's original choice.
type Policy interface {
	Name() string
	Choose(spec *cloud.JobSpec, candidates []*backend.Machine, v View) *backend.Machine
}

// cheapest is the one selection every policy makes: the candidate
// whose queue reading costs least, the first of equals. Machines whose
// queue cannot be read, or whose cost is +Inf, are skipped; nil means
// none remained.
func cheapest(spec *cloud.JobSpec, cands []*backend.Machine, v View, cost func(*backend.Machine, Reading) float64) *backend.Machine {
	var best *backend.Machine
	bestCost := math.Inf(1)
	for _, m := range cands {
		r, err := v.Queue(m.Name, spec.SubmitTime)
		if err != nil {
			continue
		}
		if c := cost(m, r); c < bestCost {
			best, bestCost = m, c
		}
	}
	return best
}

// waitCost costs a machine by its predicted wait.
func waitCost(_ *backend.Machine, r Reading) float64 { return r.WaitSeconds }

// upWaitCost is waitCost that skips machines that are down.
func upWaitCost(_ *backend.Machine, r Reading) float64 {
	if r.Down {
		return math.Inf(1)
	}
	return r.WaitSeconds
}

// UserChoice is the baseline: whatever machine the user picked.
type UserChoice struct{}

// Name implements Policy.
func (UserChoice) Name() string { return "user-choice" }

// Choose implements Policy.
func (UserChoice) Choose(*cloud.JobSpec, []*backend.Machine, View) *backend.Machine {
	return nil
}

// LeastPending routes to the machine with the shortest queue right now
// — naive load balancing.
type LeastPending struct{}

// Name implements Policy.
func (LeastPending) Name() string { return "least-pending" }

// Choose implements Policy.
func (LeastPending) Choose(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine {
	return cheapest(spec, cands, v, func(_ *backend.Machine, r Reading) float64 { return float64(r.Pending) })
}

// PredictedWait routes to the machine with the lowest predicted wait,
// which beats raw pending counts when machines have different service
// rates. On the live view the prediction is the in-flight job's
// remaining service plus the queued backlog's predicted runtimes: the
// backlog's actual composition at the submit instant, not a pending
// count sampled half an hour earlier times a fleet-wide mean.
type PredictedWait struct{}

// Name implements Policy.
func (PredictedWait) Name() string { return "predicted-wait" }

// Choose implements Policy.
func (PredictedWait) Choose(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine {
	return cheapest(spec, cands, v, waitCost)
}

// FidelityAware trades waiting time against expected fidelity, the
// §V-E.3 user-constrained trade-off: it maximizes estimated fidelity
// minus WaitPenaltyPerHour x predicted wait.
type FidelityAware struct {
	// WaitPenaltyPerHour is the fidelity a user will sacrifice to
	// start one hour sooner (default 0.02).
	WaitPenaltyPerHour float64
}

// Name implements Policy.
func (FidelityAware) Name() string { return "fidelity-aware" }

// Choose implements Policy. The cost is the score negated, which
// floating point computes exactly: a-b == -(b-a).
func (p FidelityAware) Choose(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine {
	penalty := p.WaitPenaltyPerHour
	if penalty <= 0 {
		penalty = 0.02
	}
	return cheapest(spec, cands, v, func(m *backend.Machine, r Reading) float64 {
		return penalty*(r.WaitSeconds/3600) - v.EstimatedFidelity(spec, m.Name, spec.SubmitTime)
	})
}

// FaultAware is PredictedWait that also reads the fleet's health:
// machines observably down right now (an unplanned outage in progress,
// Reading.Down) are skipped, falling back to overall shortest wait only
// when every candidate is down. As a Replacer it additionally
// withdraws its own queued jobs from machines that have since gone
// down and re-places them, the reactive half of the vendor-side
// management the paper argues for. The Estimator never reports a
// machine down, so there FaultAware places as PredictedWait does.
//
//qcloud:keep CI's chaos pass runs it: TestFaultAwareRecoveryUnderAdversarialFaults
type FaultAware struct{}

// Name implements Policy.
func (FaultAware) Name() string { return "fault-aware" }

// Choose implements Policy.
func (FaultAware) Choose(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine {
	if m := cheapest(spec, cands, v, upWaitCost); m != nil {
		return m
	}
	return cheapest(spec, cands, v, waitCost)
}

// Replace implements Replacer: a queued job on a down machine moves to
// the shortest-wait healthy candidate (nil when no healthy machine
// exists — the job waits out the outage where it is).
func (FaultAware) Replace(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine {
	return cheapest(spec, cands, v, upWaitCost)
}

// Replacer is the optional Policy extension for reacting to machine
// outages: when a previously-placed job is still queued on a machine
// that is now down, the evaluation asks the policy to pick a
// replacement machine (nil = leave the job waiting). Decisions are made
// at workload arrival instants from deterministic QueueState and
// JobStatus polls, never in the order machines happen to advance, so
// the evaluation stays bit-identical across worker counts.
type Replacer interface {
	Replace(spec *cloud.JobSpec, cands []*backend.Machine, v View) *backend.Machine
}

// Summary aggregates a policy evaluation.
type Summary struct {
	Policy            string
	MedianQueueMin    float64
	MeanQueueMin      float64
	P90QueueMin       float64
	MeanEstFidelity   float64
	CancelledFraction float64
	Jobs              int
	// Replaced counts queued jobs a Replacer policy withdrew from a
	// down machine and resubmitted elsewhere.
	Replaced int
}

// summarize aggregates the realized queue/fidelity outcomes of a
// placed workload's trace. Each job's fidelity is estimated from its
// own record's features. replaced is the number of Replacer
// withdrawals in the trace: each left a CANCELLED shadow record that
// is bookkeeping, not a user-visible cancellation, so it is excluded
// from CancelledFraction.
func summarize(policy string, tr *trace.Trace, f *FleetInfo, replaced int) Summary {
	var queues []float64
	fidSum := 0.0
	cancelled := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			cancelled++
			continue
		}
		queues = append(queues, j.QueueSeconds()/60)
		fidSum += f.fidelity(j.Machine, j.StartTime, j.BatchSize, j.CXTotal)
	}
	if cancelled >= replaced {
		cancelled -= replaced
	}
	s := Summary{
		Policy:            policy,
		MedianQueueMin:    stats.Median(queues),
		MeanQueueMin:      stats.Mean(queues),
		P90QueueMin:       stats.Quantile(queues, 0.9),
		CancelledFraction: float64(cancelled) / float64(len(tr.Jobs)),
		Jobs:              len(tr.Jobs),
		Replaced:          replaced,
	}
	if n := len(queues); n > 0 {
		s.MeanEstFidelity = fidSum / float64(n)
	}
	return s
}

// WaitBounds is a wait prediction with quantitative confidence levels,
// the §V-E.1 recommendation ("research on predicting queuing times
// with quantitative confidence levels, as pursued in HPC").
type WaitBounds struct {
	// P10, P50, P90 are seconds of predicted wait at those confidence
	// quantiles.
	P10, P50, P90 float64
}

// EstimatedWaitBounds returns quantile bounds on the wait. The point
// estimate is pending x mean service; the band comes from the
// *empirical* quantiles of actualWait/(pending x mean) that the
// background simulation recorded per machine (fair-share reordering,
// bursts and downtime make the analytic CLT band far too narrow, so
// the interval is calibrated against observed behaviour instead).
func (e *Estimator) EstimatedWaitBounds(machine string, t time.Time) WaitBounds {
	n := float64(e.PendingAt(machine, t))
	mean := e.meanExec[machine]
	if n == 0 {
		return WaitBounds{}
	}
	point := n * mean
	ratios, ok := e.waitRatio[machine]
	if !ok {
		// No calibration (quiet machine): a wide default band.
		ratios = [3]float64{0.05, 0.8, 3}
	}
	// The calibration ratios were computed against exact in-simulator
	// queue lengths, while predictions see sampled (stale) ones; widen
	// the band to absorb that staleness.
	const stalenessWiden = 2.5
	return WaitBounds{
		P10: point * ratios[0] / stalenessWiden,
		P50: point * ratios[1],
		P90: point * ratios[2] * stalenessWiden,
	}
}
