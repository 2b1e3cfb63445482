package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/trace"
)

// QueueView provides live queue snapshots at a decision instant — the
// exact information a vendor-side scheduler sees when a job arrives,
// in contrast to the Estimator's stale pre-simulated samples.
// *cloud.Session satisfies it directly.
type QueueView interface {
	QueueState(machine string) (cloud.QueueSnapshot, error)
}

// OnlinePolicy picks a machine for a job from live queue state at the
// job's submit instant. A nil return keeps the user's original choice.
type OnlinePolicy interface {
	Name() string
	ChooseLive(spec *cloud.JobSpec, candidates []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine
}

// LiveUserChoice is the online baseline: whatever machine the user
// picked, placed through the same session harness.
type LiveUserChoice struct{}

// Name implements OnlinePolicy.
func (LiveUserChoice) Name() string { return "live-user-choice" }

// ChooseLive implements OnlinePolicy.
func (LiveUserChoice) ChooseLive(*cloud.JobSpec, []*backend.Machine, QueueView, *FleetInfo) *backend.Machine {
	return nil
}

// LiveLeastPending routes to the machine whose queue is shortest right
// now — the naive balancer, but acting on exact rather than sampled
// pending counts.
type LiveLeastPending struct{}

// Name implements OnlinePolicy.
func (LiveLeastPending) Name() string { return "live-least-pending" }

// ChooseLive implements OnlinePolicy.
func (LiveLeastPending) ChooseLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine {
	var best *backend.Machine
	bestP := 0
	for _, m := range cands {
		snap, err := q.QueueState(m.Name)
		if err != nil {
			continue
		}
		if best == nil || snap.Pending < bestP {
			best, bestP = m, snap.Pending
		}
	}
	return best
}

// LiveShortestWait routes to the machine with the smallest live wait
// estimate: the in-flight job's remaining service plus the queued
// backlog's predicted runtimes. This is what the paper's §IV-D
// vendor-side management can compute but the offline estimator cannot:
// the backlog's actual composition at the submit instant, not a
// pending count sampled half an hour earlier times a fleet-wide mean.
type LiveShortestWait struct{}

// Name implements OnlinePolicy.
func (LiveShortestWait) Name() string { return "live-shortest-wait" }

// ChooseLive implements OnlinePolicy.
func (LiveShortestWait) ChooseLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine {
	var best *backend.Machine
	bestW := math.Inf(1)
	for _, m := range cands {
		snap, err := q.QueueState(m.Name)
		if err != nil {
			continue
		}
		if w := snap.EstimatedWaitSeconds(); w < bestW {
			best, bestW = m, w
		}
	}
	return best
}

// LiveFidelityAware trades live waiting time against expected
// fidelity: the §V-E.3 user-constrained trade-off, with the wait side
// computed from the queue's actual backlog.
type LiveFidelityAware struct {
	// WaitPenaltyPerHour is the fidelity a user will sacrifice to
	// start one hour sooner (default 0.02).
	WaitPenaltyPerHour float64
}

// Name implements OnlinePolicy.
func (LiveFidelityAware) Name() string { return "live-fidelity-aware" }

// ChooseLive implements OnlinePolicy.
func (p LiveFidelityAware) ChooseLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine {
	penalty := p.WaitPenaltyPerHour
	if penalty <= 0 {
		penalty = 0.02
	}
	var best *backend.Machine
	bestScore := math.Inf(-1)
	for _, m := range cands {
		snap, err := q.QueueState(m.Name)
		if err != nil {
			continue
		}
		fid := f.EstimatedFidelity(spec, m.Name, spec.SubmitTime)
		score := fid - penalty*snap.EstimatedWaitSeconds()/3600
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// LiveFaultAware is LiveShortestWait that also reads the fleet's
// health: machines observably down right now (an unplanned outage in
// progress — QueueSnapshot.Down) are skipped, falling back to overall
// shortest wait only when every candidate is down. As a Replacer it
// additionally withdraws its own queued jobs from machines that have
// since gone down and re-places them, the reactive half of the
// vendor-side management the paper argues for.
//
//qcloud:keep CI's chaos pass runs it: TestFaultAwareRecoveryUnderAdversarialFaults
type LiveFaultAware struct{}

// Name implements OnlinePolicy.
func (LiveFaultAware) Name() string { return "live-fault-aware" }

// ChooseLive implements OnlinePolicy.
func (LiveFaultAware) ChooseLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine {
	var best, bestUp *backend.Machine
	bestW, bestUpW := math.Inf(1), math.Inf(1)
	for _, m := range cands {
		snap, err := q.QueueState(m.Name)
		if err != nil {
			continue
		}
		w := snap.EstimatedWaitSeconds()
		if w < bestW {
			best, bestW = m, w
		}
		if !snap.Down && w < bestUpW {
			bestUp, bestUpW = m, w
		}
	}
	if bestUp != nil {
		return bestUp
	}
	return best
}

// ReplaceLive implements Replacer: a queued job on a down machine
// moves to the shortest-wait healthy candidate (nil when no healthy
// machine exists — the job waits out the outage where it is).
func (p LiveFaultAware) ReplaceLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine {
	var best *backend.Machine
	bestW := math.Inf(1)
	for _, m := range cands {
		snap, err := q.QueueState(m.Name)
		if err != nil || snap.Down {
			continue
		}
		if w := snap.EstimatedWaitSeconds(); w < bestW {
			best, bestW = m, w
		}
	}
	return best
}

// Replacer is the optional OnlinePolicy extension for reacting to
// machine outages: when a previously-placed job is still queued on a
// machine that is now down, EvaluateOnline asks the policy to pick a
// replacement machine (nil = leave the job waiting). Decisions are
// made at workload arrival instants from deterministic QueueState and
// JobStatus polls — not from the asynchronous Observe stream — so the
// evaluation stays bit-identical across worker counts.
type Replacer interface {
	ReplaceLive(spec *cloud.JobSpec, cands []*backend.Machine, q QueueView, f *FleetInfo) *backend.Machine
}

// onlineJob tracks a placed job so a Replacer can revisit it.
type onlineJob struct {
	h    *cloud.JobHandle
	spec *cloud.JobSpec
	idx  int
}

// EvaluateOnline drives the workload through an open cloud session in
// arrival order: for each job the session advances to the submit
// instant, the policy reads live QueueState snapshots of the legal
// candidates, and the (possibly re-targeted) job is submitted mid-run.
// No pre-simulation or replay is involved — this is the genuinely
// online counterpart of Evaluate's estimator-and-replay pipeline, and
// the A/B baseline for it. Policies implementing Replacer additionally
// get to move queued jobs off machines that went down since placement;
// each move withdraws the job and resubmits it at the decision
// instant (its queue clock restarts, and the withdrawal's CANCELLED
// shadow record is excluded from CancelledFraction).
func EvaluateOnline(cfg cloud.Config, specs []*cloud.JobSpec, policy OnlinePolicy, f *FleetInfo) (Summary, *trace.Trace, error) {
	sess, err := cloud.Open(cfg)
	if err != nil {
		return Summary{}, nil, fmt.Errorf("sched: opening session: %w", err)
	}
	defer sess.Close()
	ordered := make([]*cloud.JobSpec, len(specs))
	copy(ordered, specs)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].SubmitTime.Before(ordered[j].SubmitTime)
	})
	replacer, _ := policy.(Replacer)
	placed := make([]*cloud.JobSpec, len(ordered))
	live := make([]onlineJob, 0, len(ordered))
	replaced := 0
	for i, s := range ordered {
		c := *s
		sess.AdvanceTo(c.SubmitTime)
		if replacer != nil {
			n, err := replaceDown(sess, replacer, f, live, placed, c.SubmitTime)
			if err != nil {
				return Summary{}, nil, err
			}
			replaced += n
		}
		if m := policy.ChooseLive(&c, f.Candidates(&c), sess, f); m != nil {
			c.Machine = m.Name
		}
		h, err := sess.SubmitRetried(&c, 0)
		if err != nil {
			return Summary{}, nil, fmt.Errorf("sched: online submit: %w", err)
		}
		placed[i] = &c
		live = append(live, onlineJob{h: h, spec: &c, idx: i})
	}
	tr, err := sess.Run()
	if err != nil {
		return Summary{}, nil, err
	}
	return summarize(policy.Name(), placed, tr, f, replaced), tr, nil
}

// replaceDown scans the still-queued jobs for machines that are down
// at the decision instant and lets the Replacer move them. It returns
// the number of jobs moved. live entries are updated in place;
// finished jobs drop their handles so later scans skip them.
func replaceDown(sess *cloud.Session, rp Replacer, f *FleetInfo, live []onlineJob, placed []*cloud.JobSpec, now time.Time) (int, error) {
	moved := 0
	for k := range live {
		pj := &live[k]
		if pj.h == nil {
			continue
		}
		st, err := sess.JobStatus(pj.h)
		if err != nil || st == cloud.JobStateFinished || st == cloud.JobStateWithdrawn {
			pj.h = nil
			continue
		}
		if st != cloud.JobStateQueued {
			// Still pending admission: revisit at the next instant.
			continue
		}
		snap, err := sess.QueueState(pj.spec.Machine)
		if err != nil || !snap.Down {
			continue
		}
		c := *pj.spec
		c.SubmitTime = now
		m := rp.ReplaceLive(&c, f.Candidates(&c), sess, f)
		if m == nil || m.Name == pj.spec.Machine {
			continue
		}
		if err := sess.Cancel(pj.h); err != nil {
			// Lost the race with the server (e.g. it just recorded the
			// job): leave it be.
			pj.h = nil
			continue
		}
		c.Machine = m.Name
		h, err := sess.SubmitRetried(&c, 0)
		if err != nil {
			return moved, fmt.Errorf("sched: online re-place: %w", err)
		}
		moved++
		placed[pj.idx] = &c
		pj.h, pj.spec = h, &c
	}
	return moved, nil
}
