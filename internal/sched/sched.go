// Package sched implements the vendor-side, machine-aware job
// placement the paper recommends (§IV-D: "opportunities for
// vendor-employed machine-aware system wide management of resources
// (with user-constraints) should be explored") together with the
// queue-time prediction of §V-E.
//
// Two placement pipelines coexist as an A/B pair. The offline one
// builds an Estimator from a background-only pre-simulation (stale
// sampled pending counts and mean service times), rewrites the whole
// workload, and replays it through the simulator. The online one
// (online.go) opens a cloud.Session and decides each job at its
// actual submit instant from live QueueState snapshots — the
// vendor-side, machine-aware management the paper argues for, with no
// pre-simulation at all.
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
// access, and mean background service times. The offline Estimator
// layers pre-simulated queue statistics on top of it; the online
// session policies (online.go) combine it with live QueueState
// snapshots instead.
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
	tr, err := cloud.Simulate(cfg, nil)
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

// EstimatedWaitSeconds predicts the queue wait for a job submitted to
// the machine at time t: pending jobs times the machine's mean service
// time. This is exactly the estimate a vendor can compute from public
// queue lengths plus the Fig 15 runtime predictor.
func (e *Estimator) EstimatedWaitSeconds(machine string, t time.Time) float64 {
	return float64(e.PendingAt(machine, t)) * e.meanExec[machine]
}

// EstimatedFidelity scores the expected per-circuit success of a job on
// a machine from its calibration: (1-meanCXerr)^(CX per circuit) — the
// §IV-B compile-time CX metric used for machine selection.
func (f *FleetInfo) EstimatedFidelity(spec *cloud.JobSpec, machine string, t time.Time) float64 {
	m := f.machines[machine]
	if m == nil {
		return 0
	}
	cal := m.CalibrationAt(t)
	cxPerCircuit := 0.0
	if spec.BatchSize > 0 {
		cxPerCircuit = float64(spec.CXTotal) / float64(spec.BatchSize)
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

// Policy picks a machine for a job from the legal candidates. A nil
// return keeps the user's original choice.
type Policy interface {
	Name() string
	Choose(spec *cloud.JobSpec, candidates []*backend.Machine, e *Estimator) *backend.Machine
}

// UserChoice is the baseline: whatever machine the user picked.
type UserChoice struct{}

// Name implements Policy.
func (UserChoice) Name() string { return "user-choice" }

// Choose implements Policy.
func (UserChoice) Choose(*cloud.JobSpec, []*backend.Machine, *Estimator) *backend.Machine {
	return nil
}

// LeastPending routes to the machine with the shortest queue right now
// — naive load balancing.
type LeastPending struct{}

// Name implements Policy.
func (LeastPending) Name() string { return "least-pending" }

// Choose implements Policy.
func (LeastPending) Choose(spec *cloud.JobSpec, cands []*backend.Machine, e *Estimator) *backend.Machine {
	var best *backend.Machine
	bestP := 0
	for _, m := range cands {
		p := e.PendingAt(m.Name, spec.SubmitTime)
		if best == nil || p < bestP {
			best, bestP = m, p
		}
	}
	return best
}

// PredictedWait routes to the machine with the lowest predicted wait
// (pending x mean service), which beats raw pending counts when
// machines have different service rates.
type PredictedWait struct{}

// Name implements Policy.
func (PredictedWait) Name() string { return "predicted-wait" }

// Choose implements Policy.
func (PredictedWait) Choose(spec *cloud.JobSpec, cands []*backend.Machine, e *Estimator) *backend.Machine {
	var best *backend.Machine
	bestW := 0.0
	for _, m := range cands {
		w := e.EstimatedWaitSeconds(m.Name, spec.SubmitTime)
		if best == nil || w < bestW {
			best, bestW = m, w
		}
	}
	return best
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

// Choose implements Policy.
func (p FidelityAware) Choose(spec *cloud.JobSpec, cands []*backend.Machine, e *Estimator) *backend.Machine {
	penalty := p.WaitPenaltyPerHour
	if penalty <= 0 {
		penalty = 0.02
	}
	var best *backend.Machine
	bestScore := math.Inf(-1)
	for _, m := range cands {
		fid := e.EstimatedFidelity(spec, m.Name, spec.SubmitTime)
		waitH := e.EstimatedWaitSeconds(m.Name, spec.SubmitTime) / 3600
		score := fid - penalty*waitH
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// Place rewrites each spec's target machine according to the policy.
// Specs are copied; the input slice is not mutated.
func Place(specs []*cloud.JobSpec, policy Policy, e *Estimator) []*cloud.JobSpec {
	out := make([]*cloud.JobSpec, len(specs))
	for i, s := range specs {
		c := *s
		if m := policy.Choose(&c, e.Candidates(&c), e); m != nil {
			c.Machine = m.Name
		}
		out[i] = &c
	}
	return out
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
	// down machine and resubmitted elsewhere (online evaluation only).
	Replaced int
}

// Evaluate places the workload under the policy and replays it through
// the cloud simulator, returning the realized queue/fidelity summary.
func Evaluate(cfg cloud.Config, specs []*cloud.JobSpec, policy Policy, e *Estimator) (Summary, *trace.Trace, error) {
	placed := Place(specs, policy, e)
	tr, err := cloud.Simulate(cfg, placed)
	if err != nil {
		return Summary{}, nil, err
	}
	return summarize(policy.Name(), placed, tr, e.FleetInfo, 0), tr, nil
}

// summarize aggregates the realized queue/fidelity outcomes of a
// placed workload's trace. replaced is the number of Replacer
// withdrawals in the trace: each left a CANCELLED shadow record that
// is bookkeeping, not a user-visible cancellation, so it is excluded
// from CancelledFraction.
func summarize(policy string, placed []*cloud.JobSpec, tr *trace.Trace, f *FleetInfo, replaced int) Summary {
	var queues []float64
	fidSum := 0.0
	cancelled := 0
	byID := make(map[string]*cloud.JobSpec) // key: user+submit time
	for _, s := range placed {
		byID[s.User+s.SubmitTime.String()] = s
	}
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			cancelled++
			continue
		}
		queues = append(queues, j.QueueSeconds()/60)
		if s := byID[j.User+j.SubmitTime.String()]; s != nil {
			fidSum += f.EstimatedFidelity(s, j.Machine, j.StartTime)
		}
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
