package main

import (
	"reflect"
	"testing"
	"time"
)

func TestStreamGeneratorSeedDeterminism(t *testing.T) {
	a, b := streamShapes(7), streamShapes(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different stream jobs")
	}
	if reflect.DeepEqual(a, streamShapes(8)) {
		t.Fatal("different seeds produced the same stream jobs")
	}
	if len(a) != streamWave {
		t.Fatalf("%d jobs in a wave, want %d", len(a), streamWave)
	}
	for _, s := range a {
		if s.size < 1 || s.size > streamNodes/16+1 || s.work < 60 || s.work >= 60+1800 {
			t.Fatalf("job shape %+v outside 1..%d nodes, 1..31 minutes", s, streamNodes/16+1)
		}
	}
}

func TestScheddScheduleSeedDeterminism(t *testing.T) {
	const budget = 2 * time.Second
	a, b := scheddSchedule(3, 0, budget), scheddSchedule(3, 0, budget)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different schedules")
	}
	if reflect.DeepEqual(a, scheddSchedule(4, 0, budget)) {
		t.Fatal("different seeds produced the same schedule")
	}
	if reflect.DeepEqual(a, scheddSchedule(3, 1, budget)) {
		t.Fatal("two tenants share a schedule")
	}

	// Rate and mix: ~scheddRate requests per second, ~80/10/10.
	var counts [3]int
	var clock int64
	var last time.Duration
	for _, op := range a {
		if op.due < last || op.due >= budget {
			t.Fatalf("due time %v out of order or past the budget", op.due)
		}
		last = op.due
		counts[classIndex[op.kind.class()]]++
		switch op.kind {
		case opAdvance:
			clock += advanceHours * 3600
		case opSubmit:
			if op.job.Submit <= clock {
				t.Fatalf("job %d submitted at t=%d, not past the session clock %d", op.job.ID, op.job.Submit, clock)
			}
		}
	}
	n := float64(len(a))
	if want := scheddRate * budget.Seconds(); n < 0.9*want || n > 1.1*want {
		t.Errorf("%d requests in %v, want about %.0f", len(a), budget, want)
	}
	if f := float64(counts[0]) / n; f < 0.75 || f > 0.85 {
		t.Errorf("submit share %.2f, want ~0.8", f)
	}
	if f := float64(counts[1]) / n; f < 0.07 || f > 0.13 {
		t.Errorf("advance share %.2f, want ~0.1", f)
	}
}
