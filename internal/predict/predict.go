// Package predict implements the paper's execution-time prediction
// model (§VI-C): a product of linear terms Π(aᵢ + bᵢ·xᵢ) over job and
// machine features, trained with nonlinear least squares on a 70/30
// train/test split, evaluated by Pearson correlation per machine —
// the methodology behind Figs 15 and 16.
package predict

import (
	"fmt"
	"math/rand"

	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

// Feature identifies one predictor input.
type Feature int

// Features in the order the paper introduces them: execution features
// (batch size, shots), circuit features (depth, width, gate ops), and
// machine-overhead features (memory slots, machine qubits).
const (
	FeatBatch Feature = iota
	FeatShots
	FeatDepth
	FeatWidth
	FeatGateOps
	FeatMemSlots
	FeatQubits
	numFeatures
)

// String returns the Fig 15 axis label for the feature.
func (f Feature) String() string {
	switch f {
	case FeatBatch:
		return "Batch"
	case FeatShots:
		return "+Shots"
	case FeatDepth:
		return "+Depth"
	case FeatWidth:
		return "+Width"
	case FeatGateOps:
		return "+GateOps"
	case FeatMemSlots:
		return "+MemSlots"
	case FeatQubits:
		return "+Qubits"
	default:
		return fmt.Sprintf("feature(%d)", int(f))
	}
}

// value extracts the feature from a job record.
func (f Feature) value(j *trace.Job) float64 {
	switch f {
	case FeatBatch:
		return float64(j.BatchSize)
	case FeatShots:
		return float64(j.Shots)
	case FeatDepth:
		return float64(j.TotalDepth)
	case FeatWidth:
		return float64(j.Width)
	case FeatGateOps:
		return float64(j.TotalGateOps)
	case FeatMemSlots:
		return float64(j.MemSlots)
	case FeatQubits:
		return float64(j.MachineQubits)
	default:
		return 0
	}
}

// CumulativeSets returns the incremental feature sets of Fig 15:
// {Batch}, {Batch,Shots}, ... up to all seven features.
func CumulativeSets() [][]Feature {
	sets := make([][]Feature, numFeatures)
	for i := Feature(0); i < numFeatures; i++ {
		set := make([]Feature, i+1)
		for k := Feature(0); k <= i; k++ {
			set[k] = k
		}
		sets[i] = set
	}
	return sets
}

// Model is a trained Π(aᵢ + bᵢ·xᵢ) runtime predictor.
type Model struct {
	Features []Feature
	// theta holds (aᵢ, bᵢ) pairs over scaled features.
	theta []float64
	// scale normalizes each feature to unit mean before fitting.
	scale []float64
}

// extract builds the scaled feature matrix for the jobs.
func (m *Model) extract(jobs []*trace.Job) [][]float64 {
	X := make([][]float64, len(jobs))
	for i, j := range jobs {
		row := make([]float64, len(m.Features))
		for k, f := range m.Features {
			row[k] = f.value(j) / m.scale[k]
		}
		X[i] = row
	}
	return X
}

// productModel evaluates Π(aᵢ + bᵢ·xᵢ).
func productModel(x []float64, theta []float64) float64 {
	prod := 1.0
	for i := range x {
		prod *= theta[2*i] + theta[2*i+1]*x[i]
	}
	return prod
}

// Train fits the model on the given jobs' execution times (seconds).
// It needs at least 2 jobs per parameter pair.
func Train(jobs []*trace.Job, features []Feature) (*Model, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("predict: no features")
	}
	if len(jobs) < 2*len(features)+2 {
		return nil, fmt.Errorf("predict: %d jobs too few for %d features", len(jobs), len(features))
	}
	m := &Model{Features: features, scale: make([]float64, len(features))}
	// Unit-mean scaling keeps the LM iteration well conditioned across
	// features spanning five orders of magnitude.
	for k, f := range features {
		s := 0.0
		for _, j := range jobs {
			s += f.value(j)
		}
		s /= float64(len(jobs))
		if s <= 0 {
			s = 1
		}
		m.scale[k] = s
	}
	X := m.extract(jobs)
	y := make([]float64, len(jobs))
	meanY := 0.0
	for i, j := range jobs {
		y[i] = j.ExecSeconds()
		meanY += y[i]
	}
	meanY /= float64(len(y))
	theta0 := make([]float64, 2*len(features))
	// Initialize the first factor near the mean runtime and the rest
	// near identity so the initial product is sane.
	theta0[0], theta0[1] = meanY/2, meanY/2
	for i := 1; i < len(features); i++ {
		theta0[2*i], theta0[2*i+1] = 0.7, 0.3
	}
	theta, err := stats.CurveFit(productModel, X, y, theta0)
	if err != nil {
		return nil, fmt.Errorf("predict: fit failed: %w", err)
	}
	m.theta = theta
	return m, nil
}

// Predict returns the model's runtime estimate (seconds) for a job.
func (m *Model) Predict(j *trace.Job) float64 {
	x := make([]float64, len(m.Features))
	for k, f := range m.Features {
		x[k] = f.value(j) / m.scale[k]
	}
	return productModel(x, m.theta)
}

// Evaluation is a train/test result for one feature set.
type Evaluation struct {
	Features []Feature
	// Correlation is the Pearson coefficient between predicted and
	// actual runtimes on the held-out test set.
	Correlation float64
	// Model is the trained predictor.
	Model *Model
	// TestActual and TestPredicted are the held-out series (for the
	// Fig 16 plots).
	TestActual, TestPredicted []float64
}

// TrainTest splits jobs 70/30 (seeded shuffle), trains on the first
// split, and evaluates Pearson correlation on the second — exactly the
// paper's protocol ("Collected data is split into training and test
// sets (70/30%) to build the model").
func TrainTest(jobs []*trace.Job, features []Feature, seed int64) (*Evaluation, error) {
	executed := make([]*trace.Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Status != trace.StatusCancelled && j.ExecSeconds() > 0 {
			executed = append(executed, j)
		}
	}
	if len(executed) < 20 {
		return nil, fmt.Errorf("predict: only %d executed jobs", len(executed))
	}
	r := rand.New(rand.NewSource(seed))
	shuffled := append([]*trace.Job(nil), executed...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := len(shuffled) * 7 / 10
	train, test := shuffled[:cut], shuffled[cut:]
	model, err := Train(train, features)
	if err != nil {
		return nil, err
	}
	actual := make([]float64, len(test))
	predicted := make([]float64, len(test))
	for i, j := range test {
		actual[i] = j.ExecSeconds()
		predicted[i] = model.Predict(j)
	}
	return &Evaluation{
		Features:      features,
		Correlation:   stats.Pearson(predicted, actual),
		Model:         model,
		TestActual:    actual,
		TestPredicted: predicted,
	}, nil
}
