package runner

import (
	"fmt"
	"runtime"
	"testing"

	"hybridsched/internal/workload"
)

// benchGrid is a representative mechanism × seed grid at reduced scale:
// 7 schedulers × 2 seeds on a 512-node, one-week trace.
func benchGrid() []Spec {
	var specs []Spec
	for _, mech := range []string{"baseline", "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA"} {
		for s := int64(1); s <= 2; s++ {
			specs = append(specs, Spec{
				Group: "bench", Variant: "W5", Mechanism: mech, Nodes: 512,
				Workload: workload.Config{
					Seed: s, Nodes: 512, Weeks: 1,
					MinJobSize:  16,
					SizeBuckets: []int{16, 32, 64, 128},
					SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
				},
			})
		}
	}
	return specs
}

// BenchmarkSweep measures one full grid execution per iteration at several
// pool sizes; the speedup of workers=NumCPU over workers=1 is the headline
// number for the parallel runner.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	specs := benchGrid()
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweep := Run(specs, Options{Workers: workers})
				if err := sweep.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)), "cells/sweep")
		})
	}
}
