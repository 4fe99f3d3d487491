package faults

import (
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/core"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/stats"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

func genSmall(t *testing.T, seed int64) []*job.Job {
	t.Helper()
	recs, err := workload.Generate(workload.Config{
		Seed: seed, Nodes: 512, Weeks: 1, Projects: 20, TargetLoad: 0.8,
		MinJobSize:  16,
		SizeBuckets: []int{16, 32, 64, 128},
		SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace.Materialize(recs, func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, 24*3600, 1.0)
	})
}

func TestWrapValidation(t *testing.T) {
	for _, cfg := range []Config{{MTBF: 0, Horizon: 1}, {MTBF: 1, Horizon: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			Wrap(sim.Baseline{}, cfg)
		}()
	}
}

func TestInjectorName(t *testing.T) {
	inj := Wrap(sim.Baseline{}, Config{MTBF: 3600, Seed: 1, Horizon: simtime.Week})
	if inj.Name() != "FCFS/EASY+faults" {
		t.Fatalf("name %q", inj.Name())
	}
}

func TestFailuresInterruptJobsAndEverythingCompletes(t *testing.T) {
	jobs := genSmall(t, 1)
	inj := Wrap(sim.Baseline{}, Config{MTBF: 2 * 3600, Seed: 7, Horizon: 4 * simtime.Week})
	e, err := sim.New(sim.Config{Nodes: 512, Validate: true}, jobs, inj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("completed %d/%d under failures", rep.Jobs, len(jobs))
	}
	if rep.FailuresInjected == 0 {
		t.Fatal("no failures injected with a 2h MTBF over a week")
	}
	// Failures discard work: some computation must be lost (rigid jobs
	// falling back to checkpoints).
	if rep.Breakdown.Lost <= 0 {
		t.Fatal("failures lost no computation")
	}
	// Every injected failure preempted a job, so the per-class preemption
	// ratios cannot all be zero.
	if rep.Rigid.PreemptedJobs+rep.Malleable.PreemptedJobs+rep.OnDemand.PreemptedJobs == 0 {
		t.Fatal("failures preempted nobody")
	}
}

func TestFaultsComposeWithMechanisms(t *testing.T) {
	jobs := genSmall(t, 2)
	mech, err := core.ByName("CUA&SPAA", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj := Wrap(mech, Config{MTBF: 4 * 3600, Seed: 3, Horizon: 4 * simtime.Week})
	e, err := sim.New(sim.Config{Nodes: 512, Validate: true}, jobs, inj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("completed %d/%d", rep.Jobs, len(jobs))
	}
	// The wrapped mechanism still serves on-demand jobs promptly.
	if rep.InstantStartRate < 0.5 {
		t.Fatalf("instant rate %.2f collapsed under faults", rep.InstantStartRate)
	}
}

func TestDeterministicTimeline(t *testing.T) {
	run := func() (int, float64) {
		jobs := genSmall(t, 4)
		inj := Wrap(sim.Baseline{}, Config{MTBF: 3 * 3600, Seed: 11, Horizon: 4 * simtime.Week})
		e, _ := sim.New(sim.Config{Nodes: 512}, jobs, inj)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FailuresInjected, rep.Utilization
	}
	f1, u1 := run()
	f2, u2 := run()
	if f1 != f2 || u1 != u2 {
		t.Fatalf("nondeterministic: %d/%g vs %d/%g", f1, u1, f2, u2)
	}
}

func TestMoreFrequentCheckpointsLoseLessUnderFaults(t *testing.T) {
	// The Fig. 7 insight under real failures: checkpointing twice as often
	// as Daly-optimal should not lose more work.
	lost := func(mult float64) float64 {
		recs, err := workload.Generate(workload.Config{
			Seed: 5, Nodes: 512, Weeks: 1, Projects: 20, TargetLoad: 0.7,
			MinJobSize:  16,
			SizeBuckets: []int{16, 32, 64, 128},
			SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
			return checkpoint.NewPlan(size, 6*3600, mult)
		})
		inj := Wrap(sim.Baseline{}, Config{MTBF: 6 * 3600, Seed: 13, Horizon: 4 * simtime.Week})
		e, _ := sim.New(sim.Config{Nodes: 512}, jobs, inj)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Breakdown.Lost
	}
	frequent := lost(0.5)
	rare := lost(2.0)
	if frequent > rare {
		t.Fatalf("frequent checkpoints lost more (%.4f) than rare (%.4f)", frequent, rare)
	}
}

func TestTimelineMeanInterArrivalUnbiased(t *testing.T) {
	// Regression for the truncation bias: each draw used to be floored
	// independently (int64(ExpFloat64(mtbf)) per step), so at a 0.9 s MTBF
	// the mean inter-arrival collapsed to ~0.49 s — an ~2x inflated failure
	// rate and duplicate same-instant events. Accumulating in float64 and
	// rounding once per event keeps the realized rate at the configured MTBF;
	// this pins it within 5%, far tighter than the old bias.
	const (
		mtbf    = 0.9
		horizon = int64(200_000)
	)
	tl := timeline(stats.NewRNG(42), mtbf, horizon)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	mean := float64(horizon) / float64(len(tl))
	if mean < mtbf*0.95 || mean > mtbf*1.05 {
		t.Fatalf("mean inter-arrival %.4f s, want %.1f s +-5%% (truncation bias regressed)", mean, mtbf)
	}
	// The bias also shows at moderate MTBFs: flooring shaves E[frac] = ~0.5 s
	// off every gap. At a 5 s MTBF that is a 10% rate inflation; the rounded
	// accumulator must stay within 3%.
	tl = timeline(stats.NewRNG(7), 5, 2_000_000)
	mean = 2_000_000 / float64(len(tl))
	if mean < 5*0.97 || mean > 5*1.03 {
		t.Fatalf("mean inter-arrival %.3f s at MTBF 5 s, want +-3%%", mean)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i] < tl[i-1] {
			t.Fatal("timeline not sorted")
		}
	}
}

func TestFailureTelemetryReachesReport(t *testing.T) {
	jobs := genSmall(t, 9)
	cfg := Config{MTBF: 2 * 3600, Seed: 5, Horizon: 4 * simtime.Week}
	e, err := sim.New(sim.Config{Nodes: 512, Validate: true}, jobs, Wrap(sim.Baseline{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailuresInjected == 0 {
		t.Fatal("no failures reached the report")
	}
	// The report clips the counters to the observation window, while the
	// injector schedules its whole timeline, which runs past the last
	// completion to the horizon: the report must see fewer failures than
	// were scheduled.
	scheduled := len(timeline(stats.NewRNG(cfg.Seed), cfg.MTBF, cfg.Horizon))
	if rep.FailuresInjected+rep.FailureMisses >= scheduled {
		t.Fatalf("window clipping had no effect: report %d+%d vs %d scheduled (horizon tail should be excluded)",
			rep.FailuresInjected, rep.FailureMisses, scheduled)
	}
	// Instant repair: the cluster never shrank.
	if rep.DownNodeSeconds != 0 {
		t.Fatalf("instant-repair run recorded %d down node-seconds", rep.DownNodeSeconds)
	}
}

func TestRepairTimeShrinksCapacity(t *testing.T) {
	jobs := genSmall(t, 3)
	inj := Wrap(sim.Baseline{}, Config{
		MTBF: 3 * 3600, Seed: 11, Horizon: 4 * simtime.Week, MeanRepair: 2 * 3600,
	})
	e, err := sim.New(sim.Config{Nodes: 512, Validate: true}, jobs, inj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("completed %d/%d under repairs", rep.Jobs, len(jobs))
	}
	if rep.DownNodeSeconds == 0 {
		t.Fatal("repair windows removed no capacity")
	}
	if rep.Breakdown.Unavailable <= 0 {
		t.Fatal("unavailable share missing from the breakdown")
	}
	if e.DownCount() != 0 {
		t.Fatalf("%d nodes still down after the run", e.DownCount())
	}
}

func TestCustomRepairDistribution(t *testing.T) {
	jobs := genSmall(t, 3)
	const fixed = 1800.0
	inj := Wrap(sim.Baseline{}, Config{
		MTBF: 3 * 3600, Seed: 11, Horizon: 4 * simtime.Week,
		MeanRepair: fixed,
		RepairTime: func(float64) float64 { return fixed },
	})
	e, err := sim.New(sim.Config{Nodes: 512, Validate: true}, jobs, inj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every failure on an in-service node removes exactly one node for
	// exactly 1800 s, so the downtime integral is bounded by the failure
	// count (downtime before the first submission falls outside the
	// observation window, so the bound is not exact).
	total := rep.FailuresInjected + rep.FailureMisses
	if rep.DownNodeSeconds <= 0 {
		t.Fatal("fixed repair removed no capacity")
	}
	if rep.DownNodeSeconds > int64(total)*int64(fixed) {
		t.Fatalf("downtime %d exceeds %d failures x %g", rep.DownNodeSeconds, total, fixed)
	}
}

func TestDeterministicTimelineWithRepairs(t *testing.T) {
	run := func() (int, int, int64, float64) {
		jobs := genSmall(t, 4)
		inj := Wrap(sim.Baseline{}, Config{
			MTBF: 3 * 3600, Seed: 11, Horizon: 4 * simtime.Week, MeanRepair: 3600,
		})
		e, _ := sim.New(sim.Config{Nodes: 512}, jobs, inj)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FailuresInjected, rep.FailureMisses, rep.DownNodeSeconds, rep.Utilization
	}
	f1, m1, d1, u1 := run()
	f2, m2, d2, u2 := run()
	if f1 != f2 || m1 != m2 || d1 != d2 || u1 != u2 {
		t.Fatalf("nondeterministic: %d/%d/%d/%g vs %d/%d/%d/%g", f1, m1, d1, u1, f2, m2, d2, u2)
	}
}

func TestWrapRejectsNegativeRepair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Wrap(sim.Baseline{}, Config{MTBF: 3600, Horizon: 1, MeanRepair: -1})
}
