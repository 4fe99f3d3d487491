package main

import (
	"fmt"
	"os"
	"time"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
)

// Stream ingest: waves of short rigid jobs pushed through the live Submit
// path of a ReleaseCompleted FCFS/EASY engine, each wave drained before the
// next. A wave is far more work than the system can run at once, so the
// queue stays deep.
const (
	streamNodes  = 1024
	streamWave   = 8192
	streamSetups = 51 // engine constructions per run
)

// streamGen is the harness's seeded generator (a 64-bit LCG).
type streamGen struct {
	rng uint64
}

func newStreamGen(seed int64) *streamGen {
	return &streamGen{rng: splitmix(uint64(seed))}
}

// splitmix scrambles a seed into a well-mixed nonzero generator state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func (g *streamGen) intn(n int) int {
	g.rng = g.rng*6364136223846793005 + 1442695040888963407
	return int(g.rng>>33) % n
}

// jobShape is one stream job's size (nodes) and work (seconds).
type jobShape struct {
	size int
	work int64
}

// streamShapes derives one wave's job shapes from the seed: sizes 1..65
// nodes, work 1..31 minutes. Every wave of a run submits these shapes under
// fresh IDs, so every wave is the same work.
func streamShapes(seed int64) []jobShape {
	g := newStreamGen(seed)
	shapes := make([]jobShape, streamWave)
	for k := range shapes {
		shapes[k] = jobShape{size: 1 + g.intn(streamNodes/16+1), work: int64(60 + g.intn(1800))}
	}
	return shapes
}

// streamEngine is one ingest engine with its wave.
type streamEngine struct {
	e      *sim.Engine
	shapes []jobShape
	lastID int
}

// submitWave pushes one wave through Submit, the k-th job arriving k seconds
// after the engine's clock, timing each call when timed is non-nil.
func (s *streamEngine) submitWave(timed func(time.Duration)) error {
	base := s.e.Now()
	for k, sh := range s.shapes {
		s.lastID++
		j := job.NewRigid(s.lastID, 0, base+int64(k), sh.size, sh.work, sh.work, 0, checkpoint.Plan{})
		t := time.Now()
		err := s.e.Submit(j)
		if timed != nil {
			timed(time.Since(t))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkDrained requires every submitted job to have completed.
func (s *streamEngine) checkDrained() error {
	if c, n := s.e.CompletedCount(), s.e.SubmittedCount(); c != n {
		return fmt.Errorf("stream: %d of %d submitted jobs completed", c, n)
	}
	return nil
}

// newStreamEngine builds an ingest engine with the seed's wave.
func newStreamEngine(seed int64) (*streamEngine, error) {
	e, err := sim.New(sim.Config{Nodes: streamNodes, ReleaseCompleted: true}, nil, sim.Baseline{})
	if err != nil {
		return nil, err
	}
	return &streamEngine{e: e, shapes: streamShapes(seed)}, nil
}

// warmUp runs one wave through the engine, so the timed waves start from a
// populated steady state.
func (s *streamEngine) warmUp() error {
	if err := s.submitWave(nil); err != nil {
		return err
	}
	for {
		more, err := s.e.Step()
		if err != nil {
			return err
		}
		if !more {
			return s.checkDrained()
		}
	}
}

// waveDrainer steps one wave, submitted at begin, to completion. It returns
// each job's time to result (from begin to its completion), or nil when it
// does not measure them.
type waveDrainer func(e *sim.Engine, begin time.Time) (*samples, error)

// streamRun builds the engine streamSetups times, keeping the last, runs an
// untimed warm-up wave through it, then ingests waves until the budget is
// spent and reports the fastest waves.
// submitted, when non-nil, times each Submit call.
func streamRun(cfg config, drain waveDrainer, submitted func(time.Duration)) (outcome, time.Duration, error) {
	out := outcome{metrics: metricSet{}}
	var setups samples
	var waves repeated
	var s *streamEngine
	for i := 0; i < streamSetups; i++ {
		t := time.Now()
		var err error
		if s, err = newStreamEngine(cfg.seed); err != nil {
			return out, 0, err
		}
		setups.add(time.Since(t))
	}
	if err := s.warmUp(); err != nil {
		return out, 0, err
	}
	done0 := s.e.CompletedCount()
	heap := startHeapMonitor()
	begin := time.Now()
	for time.Since(begin) < cfg.budget {
		out.attempted += streamWave
		t := time.Now()
		if err := s.submitWave(submitted); err != nil {
			return out, 0, err
		}
		lat, err := drain(s.e, t)
		if err != nil {
			return out, 0, err
		}
		wall := time.Since(t)
		if err := s.checkDrained(); err != nil {
			return out, 0, err
		}
		if err := waves.add(wall, streamWave, lat); err != nil {
			return out, 0, err
		}
	}
	region := time.Since(begin)
	gc := heap.finish()
	rep := s.e.Report()
	if rep.Jobs != s.e.SubmittedCount() {
		return out, 0, fmt.Errorf("stream: report counts %d jobs, %d submitted", rep.Jobs, s.e.SubmittedCount())
	}
	jobs := s.e.CompletedCount() - done0
	if jobs != out.attempted {
		return out, 0, fmt.Errorf("stream: %d of %d timed jobs completed", jobs, out.attempted)
	}
	err := reportFastest(os.Stdout, out.metrics, &waves)
	out.jobsPerSec = out.metrics["jobs_per_s"].Value
	out.metrics.set("setup_s", setups.median()/1e3, "s")
	out.metrics.set("peak_heap_mb", gc.peakMB, "MB")
	out.gc = gc
	return out, region, err
}

func runStream(cfg config) (outcome, error) {
	drain := func(e *sim.Engine, begin time.Time) (*samples, error) {
		lat := &samples{}
		done := e.CompletedCount()
		for {
			more, err := e.Step()
			if err != nil {
				return nil, err
			}
			if c := e.CompletedCount(); c > done {
				d := time.Since(begin)
				for ; done < c; done++ {
					lat.add(d)
				}
			}
			if !more {
				return lat, nil
			}
		}
	}
	out, _, err := streamRun(cfg, drain, nil)
	return out, err
}

func traceStream(cfg config) (outcome, error) {
	var st stepTracer
	var submitNS int64
	submits := 0
	attached := false
	base := 0 // events dispatched before the timed region
	drain := func(e *sim.Engine, _ time.Time) (*samples, error) {
		if !attached {
			st.attach(e)
			attached = true
			base = e.DispatchedCount()
		}
		for {
			more, err := st.step(e)
			if err != nil || !more {
				st.events = e.DispatchedCount() - base
				return nil, err
			}
		}
	}
	out, region, err := streamRun(cfg, drain, func(d time.Duration) {
		submitNS += int64(d)
		submits++
	})
	if err != nil {
		return out, err
	}
	m := metricSet{}
	st.report(m, region)
	m.set("sim.submit.ms", float64(submitNS)/1e6, "ms")
	m.set("sim.submit.n", float64(submits), "count")
	setGC(m, out.gc)
	out.metrics = m
	return out, nil
}
