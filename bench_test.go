// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index). Each benchmark runs its experiment at
// a reduced-but-representative scale (1024 nodes, 1-2 weeks, 2 seeds) so the
// full suite completes in minutes; cmd/expdriver runs the paper-scale
// versions. b.N iterations re-run the full experiment, so ns/op is the cost
// of regenerating the artifact.
package hybridsched

import (
	"fmt"
	"testing"

	"hybridsched/internal/core"
	"hybridsched/internal/exp"
	"hybridsched/internal/faults"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"

	"hybridsched/internal/checkpoint"
)

// benchOpt is the reduced experiment scale used by the benchmarks.
func benchOpt() exp.Options {
	return exp.Options{Nodes: 1024, Weeks: 1, Seeds: 2, BaseSeed: 1}
}

func BenchmarkTableI_WorkloadSummary(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableI(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_SizeHistogram(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure3(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4_TypeDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure4(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_WeeklyOnDemand(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Weeks = 4 // weekly series need several weeks
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure5(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Baseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_Mechanisms(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure6(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7_CheckpointFrequency(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure7(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionLatency measures the paper's Observation 10 directly: the
// wall-clock cost of one arrival decision (PAA victim selection) against a
// machine packed with hundreds of running jobs. The paper requires < 10 ms;
// the reported ns/op is the per-decision cost.
func BenchmarkDecisionLatency(b *testing.B) {
	b.ReportAllocs()
	recs, err := workload.Generate(workload.Config{
		Seed: 1, Nodes: 4392, Weeks: 1,
		MinJobSize:  8,
		SizeBuckets: []int{8, 16, 32, 64},
		SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, 24*3600, 1)
	})
	m, _ := core.ByName("N&SPAA", core.DefaultConfig())
	e, err := sim.New(sim.Config{Nodes: 4392}, jobs, m)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	if rep.DecisionCount == 0 {
		b.Fatal("no decisions measured")
	}
	b.ResetTimer()
	// Report the measured mean decision latency as the benchmark metric.
	for i := 0; i < b.N; i++ {
		_ = rep.MeanDecisionMs
	}
	b.ReportMetric(rep.MeanDecisionMs, "mean-ms/decision")
	b.ReportMetric(rep.MaxDecisionMs, "max-ms/decision")
}

func BenchmarkAblationBackfillReserved(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBackfillReserved(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMinSizeFraction(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationMinSizeFraction(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoticeLead(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationNoticeLead(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDirectedReturn(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationDirectedReturn(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationQueuePolicy(b *testing.B) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Seeds = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationQueuePolicy(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionFaults sweeps system MTBF under fault injection — the
// checkpoint/restart interplay extension from DESIGN.md.
func BenchmarkExtensionFaults(b *testing.B) {
	b.ReportAllocs()
	recs, err := workload.Generate(workload.Config{
		Seed: 1, Nodes: 1024, Weeks: 1,
		MinJobSize:  32,
		SizeBuckets: []int{32, 64, 128, 256},
		SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mtbfH := range []float64{6, 24, 96} {
		b.Run(fmt.Sprintf("mtbf-%gh", mtbfH), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
					return checkpoint.NewPlan(size, mtbfH*3600, 1)
				})
				m, _ := core.ByName("CUA&SPAA", core.DefaultConfig())
				inj := faults.Wrap(m, faults.Config{MTBF: mtbfH * 3600, Seed: 7, Horizon: 4 * simtime.Week})
				e, err := sim.New(sim.Config{Nodes: 1024}, jobs, inj)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Utilization, "util-%")
				b.ReportMetric(100*rep.Breakdown.Lost, "lost-%")
				b.ReportMetric(float64(rep.FailuresInjected), "failures")
			}
		})
	}
}

// BenchmarkSimulationThroughput measures raw engine speed: one full 4-week,
// 4392-node simulation per iteration.
func BenchmarkSimulationThroughput(b *testing.B) {
	b.ReportAllocs()
	recs, err := workload.Generate(workload.Config{Seed: 1, Weeks: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
			return checkpoint.NewPlan(size, 24*3600, 1)
		})
		m, _ := core.ByName("CUA&SPAA", core.DefaultConfig())
		e, _ := sim.New(sim.Config{}, jobs, m)
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "jobs/sim")
}
