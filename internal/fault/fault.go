// Package fault is the deterministic fault injector for the cloud
// simulator: unplanned machine outages, transient submit/backend
// errors, job-level failure bursts, and calibration-staleness waves —
// the real-cloud pathologies behind the paper's §IV-D/§V-E fleet
// analysis (machines going down mid-queue, jobs erroring and being
// resubmitted, stale calibrations).
//
// Determinism discipline mirrors the shot RNG: every decision comes
// from a seeded splitmix64 stream keyed by (seed, machine, epoch) for
// window generation, or from a stateless splitmix64 hash of
// (seed, machine, job, attempt) for per-attempt decisions. Streams are
// independent of the simulator's own RNG, so enabling fault injection
// never perturbs the machine RNG draw sequence, and per-epoch keying
// means the faults of epoch k do not depend on how many draws earlier
// epochs consumed — checkpoint/restore replays them exactly.
package fault

import (
	"math"
	"sort"
)

// epochSeconds is the length of one fault-stream epoch. Windows are
// generated per (machine, epoch) so the fault timeline is a pure
// function of configuration, not of simulation progress.
const epochSeconds = 30 * 86400

// Window is one fault interval in sim-seconds (same clock as the
// machine simulation: seconds since the simulation start).
type Window struct {
	Start, End float64
}

// Contains reports whether t lies inside the window ([Start, End)).
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Profile configures one machine-independent fault scenario. The zero
// value injects nothing; each mechanism activates independently.
type Profile struct {
	// OutageMeanGapDays spaces unplanned machine outages (exponential
	// gaps; 0 disables outages). Unlike the maintenance calendar,
	// outages are invisible to schedulers until they begin.
	OutageMeanGapDays float64
	// OutageMeanHours is the mean outage duration (exponential),
	// capped at OutageMaxHours (default 24h when zero).
	OutageMeanHours float64
	OutageMaxHours  float64

	// TransientErrorRate is the probability a start attempt dies to a
	// transient backend fault (retryable, unlike the session's base
	// job-level error rate).
	TransientErrorRate float64

	// BurstMeanGapDays spaces job-failure bursts (0 disables); inside
	// a burst the transient rate is BurstErrorRate instead.
	BurstMeanGapDays float64
	BurstMeanHours   float64
	BurstErrorRate   float64

	// StaleMeanGapDays spaces calibration-staleness waves (0
	// disables); inside a wave the config's job error rate is
	// multiplied by StaleErrorFactor (capped at 1).
	StaleMeanGapDays float64
	StaleMeanHours   float64
	StaleErrorFactor float64

	// SubmitErrorRate is the probability a Submit call fails with a
	// transient API error and must be retried by the client.
	SubmitErrorRate float64
}

// Kind separates the per-(machine,epoch) window streams so each fault
// mechanism draws from its own independent sequence.
type Kind int64

// Window-stream kinds.
const (
	KindOutage Kind = 1
	KindBurst  Kind = 2
	KindStale  Kind = 3
)

// Outages generates the machine's unplanned outage windows over
// [startSec, endSec), merged and clipped.
func (p *Profile) Outages(seed, machineSeed int64, startSec, endSec float64) []Window {
	maxH := p.OutageMaxHours
	if maxH <= 0 {
		maxH = 24
	}
	return p.windows(KindOutage, seed, machineSeed, startSec, endSec,
		p.OutageMeanGapDays, p.OutageMeanHours, maxH)
}

// Bursts generates the machine's failure-burst windows.
func (p *Profile) Bursts(seed, machineSeed int64, startSec, endSec float64) []Window {
	return p.windows(KindBurst, seed, machineSeed, startSec, endSec,
		p.BurstMeanGapDays, p.BurstMeanHours, 4*p.BurstMeanHours)
}

// StaleWaves generates the machine's calibration-staleness windows.
func (p *Profile) StaleWaves(seed, machineSeed int64, startSec, endSec float64) []Window {
	return p.windows(KindStale, seed, machineSeed, startSec, endSec,
		p.StaleMeanGapDays, p.StaleMeanHours, 4*p.StaleMeanHours)
}

// windows samples one kind's fault windows epoch by epoch: each epoch
// draws its event count (Poisson around epochLen/gap) and event
// start/duration from a stream seeded only by (seed, machine, epoch,
// kind), then the union is merged and clipped to [startSec, endSec).
// Epochs are anchored at sim-second 0, so the same configuration
// yields the same windows regardless of the queried range.
func (p *Profile) windows(kind Kind, seed, machineSeed int64, startSec, endSec float64, gapDays, meanHours, maxHours float64) []Window {
	if gapDays <= 0 || meanHours <= 0 || endSec <= startSec {
		return nil
	}
	maxDur := maxHours * 3600
	// Windows from an earlier epoch can reach into the range; start
	// one max-duration early.
	firstEpoch := int64(math.Floor((startSec - maxDur) / epochSeconds))
	lastEpoch := int64(math.Floor(endSec / epochSeconds))
	perEpoch := epochSeconds / (gapDays * 86400)
	var wins []Window
	for e := firstEpoch; e <= lastEpoch; e++ {
		s := newStream(seed, machineSeed, int64(kind), e)
		n := s.poisson(perEpoch)
		base := float64(e) * epochSeconds
		for i := 0; i < n; i++ {
			at := base + s.unit()*epochSeconds
			dur := math.Min(s.exp()*meanHours*3600, maxDur)
			wins = append(wins, Window{Start: at, End: at + dur})
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Start < wins[j].Start })
	// Merge overlaps and clip to the requested range.
	var out []Window
	for _, w := range wins {
		if w.End <= startSec || w.Start >= endSec {
			continue
		}
		if w.Start < startSec {
			w.Start = startSec
		}
		if w.End > endSec {
			w.End = endSec
		}
		if n := len(out); n > 0 && w.Start <= out[n-1].End {
			if w.End > out[n-1].End {
				out[n-1].End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// Unit hashes the parts into a uniform float64 in [0, 1) — the
// stateless per-decision stream (no cursor to checkpoint).
func Unit(parts ...int64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = splitmix(h ^ uint64(p))
	}
	return float64(splitmix(h)>>11) / (1 << 53)
}

// Decide reports whether the hashed decision fires at the given rate.
func Decide(rate float64, parts ...int64) bool {
	return rate > 0 && Unit(parts...) < rate
}

// At returns the window containing t, using a monotone cursor the
// caller owns: queries must arrive in nondecreasing t order. The bool
// reports whether t is inside a window.
func At(wins []Window, cursor *int, t float64) (Window, bool) {
	for *cursor < len(wins) && t >= wins[*cursor].End {
		*cursor++
	}
	if *cursor < len(wins) && t >= wins[*cursor].Start {
		return wins[*cursor], true
	}
	return Window{}, false
}

// Covers reports whether t lies inside any window, by binary search —
// the cursorless form for read-only probes (queue snapshots).
func Covers(wins []Window, t float64) bool {
	i := sort.Search(len(wins), func(k int) bool { return wins[k].End > t })
	return i < len(wins) && wins[i].Contains(t)
}

// splitmix is the splitmix64 output scrambler.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream is a seeded splitmix64 sequence for window generation.
type stream struct{ state uint64 }

func newStream(parts ...int64) *stream {
	h := uint64(0x8a5cd789635d2dff)
	for _, p := range parts {
		h = splitmix(h ^ uint64(p))
	}
	return &stream{state: h}
}

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *stream) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// exp draws a unit-mean exponential.
func (s *stream) exp() float64 { return -math.Log(1 - s.unit()) }

// poisson draws a Poisson count with the given mean (Knuth's method;
// means here are small, bounded by epoch length over gap).
func (s *stream) poisson(mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.unit()
		if p <= l {
			return k
		}
		k++
	}
}
