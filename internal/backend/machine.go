package backend

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Study period covered by the reproduction, matching the paper's "two
// year period up to April 2021".
var (
	StudyStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
)

// Machine is one quantum backend in the fleet: its coupling map, access
// class, calibration model, and execution-cost parameters.
type Machine struct {
	// Name is the IBM-style backend name, e.g. "ibmq_manhattan".
	Name string
	// Topo is the coupling map.
	Topo *Topology
	// Public marks freely accessible machines (vs privileged/paid).
	Public bool
	// Simulator marks the qasm-simulator pseudo-backend.
	Simulator bool
	// Tier is the hardware quality generation (0 best).
	Tier int
	// Calib parameterizes the calibration generator.
	Calib CalibModel
	// Seed drives all machine-specific randomness deterministically.
	Seed int64
	// Online/Retired bound the machine's availability inside the study
	// window. A zero Retired means the machine stays online.
	Online, Retired time.Time
	// Popularity weights user machine-selection demand; public machines
	// carry most of the load (Fig 9).
	Popularity float64
	// JobOverheadSec is the fixed per-job execution overhead (loading,
	// initialization); grows with machine size.
	JobOverheadSec float64
	// CircuitOverheadSec is the per-circuit overhead within a job.
	CircuitOverheadSec float64
	// ShotMicros is the per-shot cost in microseconds (reset + execute
	// + readout), the dominant term at high shot counts.
	ShotMicros float64

	calMu    sync.Mutex
	calCache map[int]*Calibration
}

// NumQubits returns the machine size.
func (m *Machine) NumQubits() int { return m.Topo.N }

// AvailableAt reports whether the machine is online at time t.
func (m *Machine) AvailableAt(t time.Time) bool {
	if t.Before(m.Online) {
		return false
	}
	return m.Retired.IsZero() || t.Before(m.Retired)
}

// calibrationHour is when the daily recalibration lands ("usually
// calibrated once a day, likely around 12:00am - 2:00am").
const calibrationHour = 1

// CalibrationEpochAt returns the calibration cycle index covering time
// t: epochs advance at 01:00 UTC daily.
func (m *Machine) CalibrationEpochAt(t time.Time) int {
	shifted := t.Add(-calibrationHour * time.Hour)
	return int(shifted.Sub(StudyStart.Add(-24*time.Hour)) / (24 * time.Hour))
}

// CalibrationAt returns the calibration snapshot in effect at time t.
// Snapshots are deterministic in (machine seed, epoch) and memoized.
func (m *Machine) CalibrationAt(t time.Time) *Calibration {
	epoch := m.CalibrationEpochAt(t)
	m.calMu.Lock()
	defer m.calMu.Unlock()
	if m.calCache == nil {
		m.calCache = make(map[int]*Calibration)
	}
	if c, ok := m.calCache[epoch]; ok {
		return c
	}
	calTime := StudyStart.Add(-24 * time.Hour).Add(time.Duration(epoch) * 24 * time.Hour).Add(calibrationHour * time.Hour)
	c := GenCalibration(m.Topo, m.Calib, m.Seed, epoch, calTime)
	m.calCache[epoch] = c
	return c
}

// ExecSeconds returns the modeled wall-clock seconds to execute a job
// of batchSize circuits at the given shots on this machine. The model
// matches the paper's finding (§VI) that overheads dominate: runtime is
// proportional to batch size, sub-linearly affected by shots, and only
// weakly by circuit structure (depth adds nanoseconds per shot).
func (m *Machine) ExecSeconds(batchSize, shots, totalDepth int) float64 {
	if batchSize <= 0 {
		return 0
	}
	perShot := m.ShotMicros*1e-6 + float64(totalDepth)/float64(batchSize)*0.4e-6
	perCircuit := m.CircuitOverheadSec + float64(shots)*perShot
	return m.JobOverheadSec + float64(batchSize)*perCircuit
}

func date(y int, mo time.Month, d int) time.Time {
	return time.Date(y, mo, d, 0, 0, 0, 0, time.UTC)
}

// newMachine fills in the derived execution-cost parameters. Per-shot
// cost falls with hardware generation (faster reset/readout on newer
// devices) and grows mildly with machine size; job overhead grows with
// size (loading and initialization).
func newMachine(name string, topo *Topology, public bool, tier int, online time.Time, retired time.Time, popularity float64, seed int64) *Machine {
	n := topo.N
	shotBase := [3]float64{250, 450, 650}[minInt(tier, 2)]
	return &Machine{
		Name: name, Topo: topo, Public: public, Tier: tier,
		Calib: DefaultCalibModel(tier), Seed: seed,
		Online: online, Retired: retired, Popularity: popularity,
		JobOverheadSec:     20 + 0.4*float64(n),
		CircuitOverheadSec: 0.02 + 0.002*float64(n),
		ShotMicros:         shotBase + 4*float64(n),
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fleet returns the full machine registry of the study: the 25+ IBM
// devices of Figs 6, 9, 10, 13 plus the qasm simulator. Machines carry
// approximate real-world online/retirement dates so the two-year trace
// sees the fleet evolve (tokyo retiring, manhattan arriving, ...).
func Fleet() []*Machine {
	ms := []*Machine{
		newMachine("ibmqx4", bowtie5(), true, 2, date(2017, 9, 1), date(2019, 6, 1), 2.0, 101),
		newMachine("ibmqx2", bowtie5(), true, 2, date(2017, 1, 1), time.Time{}, 3.0, 102),
		newMachine("ibmq_16_melbourne", melbourne15(), true, 2, date(2018, 9, 1), time.Time{}, 4.0, 103),
		newMachine("ibmq_20_tokyo", tokyo20(), false, 1, date(2018, 9, 1), date(2019, 9, 1), 0.6, 104),
		newMachine("ibmq_poughkeepsie", penguin20(), false, 1, date(2019, 2, 1), date(2020, 4, 1), 0.5, 105),
		newMachine("ibmq_johannesburg", penguin20(), false, 1, date(2019, 5, 1), date(2020, 9, 1), 0.6, 106),
		newMachine("ibmq_boeblingen", penguin20(), false, 1, date(2019, 7, 1), date(2021, 1, 1), 0.6, 107),
		newMachine("ibmq_ourense", tShape5(), false, 1, date(2019, 7, 1), date(2021, 1, 15), 0.9, 108),
		newMachine("ibmq_vigo", tShape5(), false, 1, date(2019, 7, 1), date(2021, 1, 15), 0.9, 109),
		newMachine("ibmq_valencia", tShape5(), false, 1, date(2019, 7, 15), date(2021, 1, 15), 0.8, 110),
		newMachine("ibmq_london", tShape5(), false, 1, date(2019, 9, 1), date(2021, 1, 15), 0.7, 111),
		newMachine("ibmq_burlington", tShape5(), false, 1, date(2019, 9, 1), date(2021, 1, 15), 0.7, 112),
		newMachine("ibmq_essex", tShape5(), false, 1, date(2019, 9, 1), date(2021, 1, 15), 0.7, 113),
		newMachine("ibmq_armonk", mustTopology(1, nil), true, 1, date(2019, 10, 1), time.Time{}, 1.2, 114),
		newMachine("ibmq_rochester", HeavyHexLike(53), false, 1, date(2019, 11, 1), date(2021, 1, 1), 0.5, 115),
		newMachine("ibmq_paris", falcon27(), false, 0, date(2020, 4, 1), time.Time{}, 1.0, 116),
		newMachine("ibmq_rome", Line(5), false, 0, date(2020, 4, 15), time.Time{}, 1.0, 117),
		newMachine("ibmq_athens", Line(5), true, 0, date(2020, 5, 1), time.Time{}, 6.0, 118),
		newMachine("ibmq_toronto", falcon27(), false, 0, date(2020, 7, 1), time.Time{}, 1.2, 119),
		newMachine("ibmq_bogota", Line(5), false, 0, date(2020, 8, 1), time.Time{}, 1.0, 120),
		newMachine("ibmq_santiago", Line(5), true, 0, date(2020, 9, 1), time.Time{}, 4.5, 121),
		newMachine("ibmq_casablanca", hShape7(), false, 0, date(2020, 10, 1), time.Time{}, 1.1, 122),
		newMachine("ibmq_manhattan", HeavyHexLike(65), false, 0, date(2020, 11, 1), time.Time{}, 1.3, 123),
		newMachine("ibmq_guadalupe", guadalupe16(), false, 0, date(2021, 1, 15), time.Time{}, 0.9, 124),
		newMachine("ibmq_belem", tShape5(), true, 0, date(2021, 1, 15), time.Time{}, 3.5, 125),
		newMachine("ibmq_lima", tShape5(), true, 0, date(2021, 2, 1), time.Time{}, 3.0, 126),
		newMachine("ibmq_quito", tShape5(), true, 0, date(2021, 3, 1), time.Time{}, 2.5, 127),
	}
	sim := newMachine("ibmq_qasm_simulator", fullyConnected(32), true, 0, date(2017, 1, 1), time.Time{}, 2.0, 128)
	sim.Simulator = true
	// The simulator executes far faster than hardware and never queues
	// long; shrink its cost parameters accordingly.
	sim.JobOverheadSec = 3
	sim.CircuitOverheadSec = 0.01
	sim.ShotMicros = 5
	ms = append(ms, sim)
	return ms
}

// Fake1000 returns the illustrative 1000-qubit machine the paper
// compiles a 980q QFT against in Fig 5.
func Fake1000() *Machine {
	m := newMachine("fake_1000q", HeavyHexLike(1000), false, 0, date(2021, 1, 1), time.Time{}, 0, 999)
	return m
}

// CustomMachine wraps an arbitrary topology as a machine, for benchmark
// and what-if studies at sizes the fleet does not cover.
func CustomMachine(name string, topo *Topology, tier int) *Machine {
	return newMachine(name, topo, false, tier, date(2021, 1, 1), time.Time{}, 1, int64(topo.N)*101+7)
}

// FleetByName returns the fleet indexed by machine name.
func FleetByName() map[string]*Machine {
	out := make(map[string]*Machine)
	for _, m := range Fleet() {
		out[m.Name] = m
	}
	return out
}

// FindMachine returns the named machine from ms or an error listing
// what exists.
func FindMachine(ms []*Machine, name string) (*Machine, error) {
	for _, m := range ms {
		if m.Name == name {
			return m, nil
		}
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("backend: unknown machine %q (have %v)", name, names)
}
