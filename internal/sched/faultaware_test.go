package sched

import (
	"testing"

	"qcloud/internal/workload"
)

func TestFaultAwareRecoveryUnderAdversarialFaults(t *testing.T) {
	const seed = 6
	sc, err := workload.FindFaultScenario("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Apply(schedConfig(seed))
	// Heavier demand than schedWorkload: re-placement only matters when
	// queues are deep enough for jobs to still be waiting when an
	// outage lands on their machine.
	specs := workload.Generate(workload.Config{
		Seed: seed, TotalJobs: 2500,
		Start: cfg.Start, End: cfg.End,
		GrowthPerMonth: 0.05,
	})
	f := NewFleetInfo(cfg)

	base, _, err := EvaluateOnline(cfg, specs, PredictedWait{}, f)
	if err != nil {
		t.Fatal(err)
	}
	aware, tr, err := EvaluateOnline(cfg, specs, FaultAware{}, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shortest-wait: %+v", base)
	t.Logf("fault-aware:   %+v", aware)

	if base.Replaced != 0 {
		t.Fatalf("PredictedWait is not a Replacer; Replaced = %d", base.Replaced)
	}
	if aware.Replaced == 0 {
		t.Fatal("adversarial outages never triggered a re-placement; the reactive path is dead")
	}
	if aware.Jobs == 0 || len(tr.Jobs) == 0 {
		t.Fatal("fault-aware evaluation produced no jobs")
	}
	// Reacting to outages must not cost user-visible completions: the
	// fault-aware cancellation fraction (re-placement withdrawals
	// excluded) stays at or below the health-blind baseline's.
	if aware.CancelledFraction > base.CancelledFraction {
		t.Fatalf("fault-aware cancelled %.3f of jobs, baseline %.3f — reacting made things worse",
			aware.CancelledFraction, base.CancelledFraction)
	}

	// Determinism: the whole poll-and-re-place loop must be a pure
	// function of (seed, workload), including across worker counts.
	cfgW := cfg
	cfgW.Workers = 4
	again, _, err := EvaluateOnline(cfgW, specs, FaultAware{}, f)
	if err != nil {
		t.Fatal(err)
	}
	if again != aware {
		t.Fatalf("fault-aware evaluation not deterministic across worker counts:\n  %+v\nvs\n  %+v", aware, again)
	}
}

func TestFaultScenarioPresets(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range workload.FaultScenarios() {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("scenario name %q empty or duplicated", s.Name)
		}
		seen[s.Name] = true
		if s.Name == "none" {
			if s.Faults != nil || s.Retry != nil {
				t.Fatal("the none scenario must be truly calm")
			}
		} else if s.Faults == nil {
			t.Fatalf("scenario %s has no fault profile", s.Name)
		}
		got, err := workload.FindFaultScenario(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("FindFaultScenario(%q) = %+v, %v", s.Name, got, err)
		}
	}
	for _, want := range []string{"none", "flaky-fleet", "outage-storm", "error-burst", "stale-waves", "adversarial"} {
		if !seen[want] {
			t.Fatalf("missing built-in scenario %q", want)
		}
	}
	if _, err := workload.FindFaultScenario("nope"); err == nil {
		t.Fatal("unknown scenario should error")
	}
}
