// Ablation benchmarks for four choices the paper weighs: the layout
// method (Fig 5's pipeline), stale versus fresh compilation (§V-E.2),
// vendor-side placement policies, and multi-programming two circuits
// on one machine (§IV-D.3). Each reports its domain metric (CX count,
// POS gap, queue minutes and fidelity, utilization) via
// b.ReportMetric alongside wall time.
package qcloud_test

import (
	"testing"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/compile"
	"qcloud/internal/sched"
	"qcloud/internal/workload"
)

// BenchmarkAblationLayoutMethod compares the layout strategies by the
// CX count of the compiled circuit (lower is better for fidelity).
func BenchmarkAblationLayoutMethod(b *testing.B) {
	m := backend.FleetByName()["ibmq_toronto"]
	cal := m.CalibrationAt(time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC))
	circ := gens.QFTBench(5)
	cases := []struct {
		name string
		opts compile.Options
	}{
		{"csp+noise", compile.Options{}},
		{"noise-only", compile.Options{SkipCSP: true}},
		{"dense-only", compile.Options{SkipCSP: true}}, // nil cal below
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			calArg := cal
			if c.name == "dense-only" {
				calArg = nil
			}
			totalCX := 0
			for i := 0; i < b.N; i++ {
				opts := c.opts
				opts.Seed = int64(i)
				res, err := compile.Compile(circ, m, calArg, opts)
				if err != nil {
					b.Fatal(err)
				}
				totalCX += res.Metrics.CXCount
			}
			b.ReportMetric(float64(totalCX)/float64(b.N), "cx/op")
		})
	}
}

// BenchmarkAblationStaleCompile quantifies the re-compilation payoff
// (§V-E.2): fresh-vs-stale POS gap per run.
func BenchmarkAblationStaleCompile(b *testing.B) {
	m := backend.FleetByName()["ibmq_toronto"]
	t0 := time.Date(2021, 3, 1, 15, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		res, err := analysis.StaleCompilationPenalty(m, 4, 3, 4, 200, t0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.FreshPOS-res.StalePOS)*100, "POSgap%")
	}
}

// BenchmarkAblationScheduler compares placement policies end to end:
// realized mean queue minutes under each policy on a three-month
// window.
func BenchmarkAblationScheduler(b *testing.B) {
	cfg := cloud.Config{
		Seed:  3,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC),
	}
	est, err := sched.BuildEstimator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := workload.Generate(workload.Config{
		Seed: 3, TotalJobs: 500, Start: cfg.Start, End: cfg.End, GrowthPerMonth: 0.05,
	})
	policies := []sched.Policy{
		sched.UserChoice{}, sched.LeastPending{}, sched.PredictedWait{}, sched.FidelityAware{},
	}
	for _, p := range policies {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, _, err := sched.Evaluate(cfg, specs, p, est)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sum.MeanQueueMin, "queueMin")
				b.ReportMetric(sum.MeanEstFidelity*100, "fid%")
			}
		})
	}
}

// BenchmarkAblationMultiProgram measures the utilization gain and cost
// of co-compiling two programs versus one.
func BenchmarkAblationMultiProgram(b *testing.B) {
	m := backend.FleetByName()["ibmq_16_melbourne"]
	cal := m.CalibrationAt(time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC))
	a, c := gens.GHZ(4), gens.QFTBench(4)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := compile.Compile(a, m, cal, compile.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Circ.UsedQubits()))/float64(m.NumQubits())*100, "util%")
		}
	})
	b.Run("multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := compile.MultiProgram(a, c, m, cal, compile.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Utilization*100, "util%")
		}
	})
}
