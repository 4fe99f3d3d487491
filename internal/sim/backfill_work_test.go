package sim

import (
	"math/rand"
	"testing"
)

// streamWaveSized runs two identical waves of 8,192 rigid jobs (1–65 nodes,
// 1–31 minutes, one a second) through Submit on a 1,024-node
// ReleaseCompleted FCFS engine, the streamed-ingest shape, and returns how
// many backfill candidates the planner sized during the second wave.
func streamWaveSized(t *testing.T) int {
	t.Helper()
	e, err := New(Config{Nodes: 1024, ReleaseCompleted: true}, nil, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		size int
		work int64
	}
	shapes := make([]shape, 8192)
	for k := range shapes {
		shapes[k] = shape{size: 1 + rng.Intn(65), work: int64(60 + rng.Intn(1800))}
	}
	id := 0
	wave := func() {
		base := e.Now()
		for k, sh := range shapes {
			id++
			if err := e.Submit(rigid(id, base+int64(k), sh.size, sh.work)); err != nil {
				t.Fatal(err)
			}
		}
		for {
			more, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
		if c := e.CompletedCount(); c != id {
			t.Fatalf("%d of %d jobs completed", c, id)
		}
	}
	wave() // warm-up: the timed wave starts from a populated steady state
	before := e.planner.Sized
	wave()
	return e.planner.Sized - before
}

// TestStreamBackfillSizesOnlyStarters pins the backfill work of a streamed
// wave. A planner that sized every candidate that could fit the pools sized
// 4,093,089 in the second wave; passing the jobs whose walls end after the
// shadow, which the extra-node rule cannot admit, cut that to 37,681.
func TestStreamBackfillSizesOnlyStarters(t *testing.T) {
	if sized := streamWaveSized(t); sized == 0 || sized > 100_000 {
		t.Fatalf("sized %d backfill candidates in one wave, want 1..100,000", sized)
	}
}
