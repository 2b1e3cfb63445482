// Package pulse lowers compiled circuits to pulse schedules, modeling
// the OpenPulse layer the paper's §III-D and §V-E.2 discuss: pulses are
// generated from the calibration at compile time, so a calibration
// crossover leaves even the pulses stale. The lowering covers the IBM
// basis (rz as a zero-duration virtual-Z frame change, sx/x as DRAG
// pulses, cx as an echoed cross-resonance sequence, measurement as a
// readout tone) with ASAP scheduling per channel.
//
// Pulse-level optimal control (the hours-long searches of Shi et al.
// that the paper cites) is out of scope; DESIGN.md records the
// substitution.
package pulse

import (
	"fmt"
	"sort"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
)

// Kind labels the physical pulse type.
type Kind string

// Pulse kinds.
const (
	KindVirtualZ Kind = "virtual_z" // frame change, zero duration
	KindDrag     Kind = "drag"      // single-qubit DRAG pulse
	KindCR       Kind = "cross_res" // echoed cross-resonance (CX)
	KindReadout  Kind = "readout"
)

// Nominal durations in microseconds.
const (
	durSXUs      = 0.036
	durXUs       = 0.036
	durCRBaseUs  = 0.300
	durReadoutUs = 1.0
)

// Instruction is one scheduled pulse on a channel.
type Instruction struct {
	// Channel is "d<q>" for qubit drive channels, "u<a>_<b>" for
	// coupler control channels, "m<q>" for measurement.
	Channel string
	// StartUs and DurationUs place the pulse on the timeline.
	StartUs, DurationUs float64
	// Kind is the pulse type.
	Kind Kind
	// Angle carries the frame-change angle for virtual-Z pulses.
	Angle float64
	// Gate is the source gate's mnemonic, for inspection.
	Gate string
}

// Schedule is a pulse program: instructions sorted by start time.
type Schedule struct {
	Instructions []Instruction
	// CalibEpoch is the calibration cycle the pulses were generated
	// against; executing under a different epoch means stale pulses.
	CalibEpoch int
}

// DurationUs returns the makespan of the schedule.
func (s *Schedule) DurationUs() float64 {
	end := 0.0
	for _, in := range s.Instructions {
		if t := in.StartUs + in.DurationUs; t > end {
			end = t
		}
	}
	return end
}

// Lower converts a hardware-basis circuit (the output of compile) into
// a pulse schedule under the given calibration. Noisier couplers get
// proportionally longer cross-resonance pulses, which is why schedules
// lowered under one calibration are suboptimal under the next. Gates
// outside the basis {rz, sx, x, cx, measure, barrier, reset} are an
// error: lower after compiling.
func Lower(c *circuit.Circuit, cal *backend.Calibration) (*Schedule, error) {
	s := &Schedule{CalibEpoch: cal.Epoch}
	// Per-qubit time cursor (ASAP scheduling).
	ready := make([]float64, c.NQubits)
	drive := func(q int) string { return fmt.Sprintf("d%d", q) }

	add := func(ch string, start, dur float64, kind Kind, angle float64, gate string) {
		s.Instructions = append(s.Instructions, Instruction{
			Channel: ch, StartUs: start, DurationUs: dur, Kind: kind, Angle: angle, Gate: gate,
		})
	}
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpRZ:
			q := g.Qubits[0]
			// Virtual-Z: a frame change consuming no time.
			add(drive(q), ready[q], 0, KindVirtualZ, g.Params[0], "rz")
		case circuit.OpSX, circuit.OpX:
			q := g.Qubits[0]
			dur := durSXUs
			if g.Op == circuit.OpX {
				dur = durXUs
			}
			add(drive(q), ready[q], dur, KindDrag, 0, g.Op.String())
			ready[q] += dur
		case circuit.OpCX:
			a, b := g.Qubits[0], g.Qubits[1]
			start := ready[a]
			if ready[b] > start {
				start = ready[b]
			}
			// Echoed CR: duration grows with the coupler's error rate
			// (weaker couplings need longer drives).
			errCX := cal.CXError(a, b, cal.MeanCXError())
			dur := durCRBaseUs * (1 + 20*errCX)
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			add(fmt.Sprintf("u%d_%d", lo, hi), start, dur, KindCR, 0, "cx")
			ready[a], ready[b] = start+dur, start+dur
		case circuit.OpMeasure:
			q := g.Qubits[0]
			add(fmt.Sprintf("m%d", q), ready[q], durReadoutUs, KindReadout, 0, "measure")
			ready[q] += durReadoutUs
		case circuit.OpReset:
			q := g.Qubits[0]
			// Measurement-based reset: readout plus a conditional X.
			add(fmt.Sprintf("m%d", q), ready[q], durReadoutUs, KindReadout, 0, "reset")
			ready[q] += durReadoutUs
			add(drive(q), ready[q], durXUs, KindDrag, 0, "reset-x")
			ready[q] += durXUs
		case circuit.OpBarrier:
			// Synchronize the involved channels.
			maxT := 0.0
			for _, q := range g.Qubits {
				if ready[q] > maxT {
					maxT = ready[q]
				}
			}
			for _, q := range g.Qubits {
				ready[q] = maxT
			}
		default:
			return nil, fmt.Errorf("pulse: op %v is not in the hardware basis; compile first", g.Op)
		}
	}
	sort.SliceStable(s.Instructions, func(i, j int) bool {
		return s.Instructions[i].StartUs < s.Instructions[j].StartUs
	})
	return s, nil
}

// StaleDurationPenalty estimates how much longer the same circuit's
// schedule becomes when its pulses must be regenerated under a newer
// calibration (coupler errors drifted): the relative makespan change.
// It is the pulse-level cost of the calibration crossovers in Fig 12a.
func StaleDurationPenalty(c *circuit.Circuit, oldCal, newCal *backend.Calibration) (float64, error) {
	old, err := Lower(c, oldCal)
	if err != nil {
		return 0, err
	}
	fresh, err := Lower(c, newCal)
	if err != nil {
		return 0, err
	}
	if old.DurationUs() == 0 {
		return 0, nil
	}
	return (fresh.DurationUs() - old.DurationUs()) / old.DurationUs(), nil
}
