package sched

import (
	"fmt"
	"slices"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/trace"
)

// Evaluate places the workload under the policy, reading queues from
// the Estimator's stale samples, and returns the realized
// queue/fidelity summary.
func Evaluate(cfg cloud.Config, specs []*cloud.JobSpec, p Policy, e *Estimator) (Summary, *trace.Trace, error) {
	return evaluate(cfg, specs, p, p.Name(), e.FleetInfo, func(*session) View { return e })
}

// EvaluateOnline places the workload under the policy, reading each
// candidate's live QueueState at the job's submit instant: the
// genuinely online counterpart of Evaluate, with no pre-simulation.
// Its summary rows are labelled "live-" + the policy's name.
func EvaluateOnline(cfg cloud.Config, specs []*cloud.JobSpec, p Policy, f *FleetInfo) (Summary, *trace.Trace, error) {
	return evaluate(cfg, specs, p, "live-"+p.Name(), f, func(s *session) View { return &liveView{f, s} })
}

// evaluate drives the workload through an open cloud session in
// arrival order: the policy picks each job's machine through the view
// and the (possibly re-targeted) copy is submitted; the input specs
// are not mutated. Policies implementing Replacer additionally get to
// move queued jobs off machines that went down since placement; each
// move withdraws the job and resubmits it at the decision instant (its
// queue clock restarts, and the withdrawal's CANCELLED shadow record is
// excluded from CancelledFraction).
func evaluate(cfg cloud.Config, specs []*cloud.JobSpec, p Policy, label string, f *FleetInfo, view func(*session) View) (Summary, *trace.Trace, error) {
	cs, err := cloud.Open(cfg)
	if err != nil {
		return Summary{}, nil, fmt.Errorf("sched: opening session: %w", err)
	}
	defer cs.Close()
	sess := &session{Session: cs}
	v := view(sess)
	ordered := slices.Clone(specs)
	slices.SortStableFunc(ordered, func(a, b *cloud.JobSpec) int { return a.SubmitTime.Compare(b.SubmitTime) })
	replacer, _ := p.(Replacer)
	var placed []placedJob
	replaced := 0
	for _, s := range ordered {
		c := *s
		if replacer != nil {
			n, err := replaceDown(sess, v, replacer, f, placed, c.SubmitTime)
			if err != nil {
				return Summary{}, nil, err
			}
			replaced += n
		}
		if m := p.Choose(&c, f.Candidates(&c), v); m != nil {
			c.Machine = m.Name
		}
		h, err := sess.SubmitRetried(&c, 0)
		if err != nil {
			return Summary{}, nil, fmt.Errorf("sched: submit: %w", err)
		}
		if replacer != nil {
			placed = append(placed, placedJob{h: h, spec: &c})
		}
	}
	tr, err := sess.Run()
	if err != nil {
		return Summary{}, nil, err
	}
	return summarize(label, tr, f, replaced), tr, nil
}

// session is an open cloud session that advances only when the
// decision instant moves, so a run whose view never reads a live queue
// never advances mid-run.
type session struct {
	*cloud.Session
	at time.Time
}

func (s *session) advanceTo(t time.Time) {
	if !t.Equal(s.at) {
		s.AdvanceTo(t)
		s.at = t
	}
}

// liveView is the View over an open session: exact pending counts,
// the queued backlog's predicted runtimes, the maintenance calendar
// and outages in progress, all at the decision instant.
type liveView struct {
	*FleetInfo
	sess *session
}

// Queue implements View from the machine's QueueState at t.
func (v *liveView) Queue(machine string, t time.Time) (Reading, error) {
	v.sess.advanceTo(t)
	snap, err := v.sess.QueueState(machine)
	if err != nil {
		return Reading{}, err
	}
	return Reading{Pending: snap.Pending, WaitSeconds: snap.EstimatedWaitSeconds(), Down: snap.Down}, nil
}

// placedJob tracks a placed job so a Replacer can revisit it.
type placedJob struct {
	h    *cloud.JobHandle
	spec *cloud.JobSpec
}

// replaceDown scans the still-queued jobs for machines that are down
// at the decision instant and lets the Replacer move them. It returns
// the number of jobs moved. placed entries are updated in place;
// finished jobs drop their handles so later scans skip them.
func replaceDown(sess *session, v View, rp Replacer, f *FleetInfo, placed []placedJob, now time.Time) (int, error) {
	sess.advanceTo(now)
	moved := 0
	for k := range placed {
		pj := &placed[k]
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
		if r, err := v.Queue(pj.spec.Machine, now); err != nil || !r.Down {
			continue
		}
		c := *pj.spec
		c.SubmitTime = now
		m := rp.Replace(&c, f.Candidates(&c), v)
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
			return moved, fmt.Errorf("sched: re-place: %w", err)
		}
		moved++
		pj.h, pj.spec = h, &c
	}
	return moved, nil
}
