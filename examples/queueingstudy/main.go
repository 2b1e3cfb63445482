// Queueing study: submit the same circuits to the simulated cloud with
// three batching strategies and compare per-circuit queuing overhead —
// the §V-C trade-off (Fig 11: "batching reduces effective per-circuit
// queuing times") on a small, fast scenario.
//
// Each strategy runs through an event-driven cloud session: jobs are
// submitted day by day as the session advances (the way a real client
// drips work into the queue), and the finished and cancelled jobs are
// counted from the trace the session returns.
package main

import (
	"fmt"
	"log"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

func main() {
	log.SetFlags(0)
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 1, 0)

	// 900 circuits/day for a week, as single-circuit jobs, 90-circuit
	// batches, or one maxed 900-circuit batch per day.
	strategies := []struct {
		name  string
		batch int
	}{
		{"unbatched (900 x batch 1)", 1},
		{"moderate (10 x batch 90)", 90},
		{"maxed    (1 x batch 900)", 900},
	}

	athens, err := backend.FindMachine(backend.Fleet(), "ibmq_athens")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %8s %16s %20s %14s %9s\n",
		"strategy", "jobs", "perJobQ med(min)", "perCircuitQ med(min)", "exec med(min)", "cancelled")
	for si, s := range strategies {
		sess, err := cloud.Open(cloud.Config{
			Seed: int64(100 + si), Start: start, End: end,
			Machines: []*backend.Machine{athens},
		})
		if err != nil {
			log.Fatal(err)
		}
		// Drip each day's submissions in as the session reaches it —
		// mid-run submission, not an up-front batch.
		for day := 0; day < 7; day++ {
			base := start.AddDate(0, 0, 7+day).Add(14 * time.Hour)
			sess.AdvanceTo(base)
			nJobs := 900 / s.batch
			for j := 0; j < nJobs; j++ {
				_, err := sess.Submit(&cloud.JobSpec{
					SubmitTime: base.Add(time.Duration(j) * 30 * time.Second),
					User:       "client",
					Machine:    "ibmq_athens",
					BatchSize:  s.batch,
					Shots:      4096,
					Width:      4, TotalDepth: 40 * s.batch,
					TotalGateOps: 120 * s.batch, CXTotal: 30 * s.batch, MemSlots: 4,
					CircuitName: "qft4",
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		tr, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		var perJob, perCirc, exec []float64
		cancelled := 0
		for _, j := range tr.Jobs {
			if j.Status == trace.StatusCancelled {
				cancelled++
				continue
			}
			q := j.QueueSeconds() / 60
			perJob = append(perJob, q)
			perCirc = append(perCirc, q/float64(j.BatchSize))
			exec = append(exec, j.ExecSeconds()/60)
		}
		fmt.Printf("%-28s %8d %16.1f %20.4f %14.1f %9d\n",
			s.name, len(perJob), stats.Median(perJob), stats.Median(perCirc), stats.Median(exec), cancelled)
	}
	fmt.Println("\nLarger batches pay the queue once for the whole batch: per-circuit")
	fmt.Println("queuing collapses, exactly the Fig 11 effect the paper reports.")
}
