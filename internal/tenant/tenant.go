// Package tenant is the multi-tenant brokering layer above
// cloud.Session: the piece that turns a single anonymous submit stream
// into a shared fleet under contention (the paper's §IV-D
// vendor-employed, system-wide management scenario).
//
// Named queues each carry a deserved share (their slice of fleet
// capacity), an over-quota weight (how aggressively they may claim
// surplus), and a priority band. A Broker sits between tenant
// submissions and a cloud.Session: tenants submit into per-queue
// backlogs, and at a fixed decision cadence the broker releases jobs
// into the session, choosing who goes next from a time-decayed
// allocation ledger of QPU-seconds per queue. When preemption is
// enabled, a higher-priority or starved under-quota queue may withdraw
// still-queued jobs of over-quota queues (Session.CancelWithReason +
// deterministic requeue into the victim's backlog), bounding how long
// a deserving tenant waits behind someone else's backlog.
//
// Determinism contract: the broker runs entirely on the driver
// goroutine, all decisions are pure functions of simulated time and
// the seed, and completion accounting reads each admitted job's record
// through its cloud.JobHandle between AdvanceTo calls, merged in a
// fixed order (end time, then fleet order, then admission order),
// never in the order machines happen to finish. A multi-tenant run is
// therefore bit-identical at any worker count, like everything else in
// this repo.
package tenant

import (
	"fmt"
	"time"
)

// QueueConfig declares one queue.
type QueueConfig struct {
	// Name identifies the queue; session-side fair-share sees its jobs
	// under the user "tenant:<name>".
	Name string
	// Share is the queue's deserved-share weight relative to the other
	// queues (0 = default 1).
	Share float64
	// OverQuotaWeight scales how strongly the queue competes for
	// surplus capacity once it is above its deserved share (0 =
	// default 1; higher = favored for surplus).
	OverQuotaWeight float64
	// Priority is the queue's band: the broker always admits (and,
	// with preemption on, displaces) across bands before consulting
	// fairness within a band.
	Priority int
}

// Config parameterizes a Broker.
type Config struct {
	// Queues are the queues in declaration order.
	Queues []QueueConfig
	// HalfLife is the allocation ledger's decay half-life (default
	// 24h): a queue's historical QPU-seconds lose half their weight
	// every HalfLife of simulated time, so fairness is time-aware —
	// yesterday's hog is not punished forever.
	HalfLife time.Duration
	// Tick is the admission-decision cadence in simulated time
	// (default 5m). Smaller ticks cut release latency at the cost of
	// more decision passes.
	Tick time.Duration
	// MaxPerMachine caps broker jobs concurrently admitted-and-
	// unrecorded per machine (default 2). The broker, not the machine
	// queue, is where tenant backlogs live — short machine queues are
	// what make admission order translate into allocation shares.
	MaxPerMachine int
	// Preemption lets the broker withdraw still-queued jobs of
	// over-quota or lower-priority queues to free machine slots.
	Preemption bool
}

const (
	// preemptSlack is the dead band around the deserved share before
	// quota-based preemption triggers (±10%).
	preemptSlack = 0.1
	// maxPreemptions bounds how often one job can be displaced; beyond
	// it the job becomes non-preemptible.
	maxPreemptions = 3
)

func (c Config) withDefaults() Config {
	if c.HalfLife <= 0 {
		c.HalfLife = 24 * time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Minute
	}
	if c.MaxPerMachine <= 0 {
		c.MaxPerMachine = 2
	}
	return c
}

// queueState is one resolved queue at runtime.
type queueState struct {
	cfg      QueueConfig
	idx      int     // ledger index: the declaration position
	deserved float64 // absolute deserved fraction of fleet capacity
	oqw      float64

	pending []*Job // backlog ordered by (arrive, seq)
	// outstanding sums the estimated QPU-seconds of admitted-but-
	// unrecorded jobs: the provisional charge that stops one queue
	// from flooding every free slot between ledger updates.
	outstanding float64
	inFlight    int

	arrived, admitted, done, errored, cancelled, preempted, unserved int
	waitSum, waitMax                                                 float64
	waitN                                                            int
}

// resolveTree validates the queues and computes each one's deserved
// fraction of fleet capacity, Share / Σ Share. Returns queues in
// declaration order.
func resolveTree(cfgs []QueueConfig) ([]*queueState, map[string]*queueState, error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("tenant: no queues configured")
	}
	byName := make(map[string]*queueState, len(cfgs))
	states := make([]*queueState, 0, len(cfgs))
	for _, qc := range cfgs {
		if qc.Name == "" {
			return nil, nil, fmt.Errorf("tenant: queue with empty name")
		}
		if qc.Share < 0 || qc.OverQuotaWeight < 0 {
			return nil, nil, fmt.Errorf("tenant: queue %q has negative share or over-quota weight", qc.Name)
		}
		if _, dup := byName[qc.Name]; dup {
			return nil, nil, fmt.Errorf("tenant: duplicate queue %q", qc.Name)
		}
		q := &queueState{cfg: qc, idx: len(states)}
		if q.cfg.Share == 0 {
			q.cfg.Share = 1
		}
		q.oqw = qc.OverQuotaWeight
		if q.oqw == 0 {
			q.oqw = 1
		}
		byName[qc.Name] = q
		states = append(states, q)
	}
	total := 0.0
	for _, q := range states {
		total += q.cfg.Share
	}
	for _, q := range states {
		q.deserved = q.cfg.Share / total
	}
	return states, byName, nil
}
