package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one slow sample, not a percentile.
const minBeyond = 10

// samples is a series of observations, times in milliseconds.
type samples struct {
	ms []float64
}

func (s *samples) add(d time.Duration) { s.addMS(float64(d) / float64(time.Millisecond)) }

func (s *samples) addMS(v float64) { s.ms = append(s.ms, v) }

// merge appends o's observations to s.
func (s *samples) merge(o *samples) { s.ms = append(s.ms, o.ms...) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the samples
// and how many samples lie strictly beyond it. ok is false when fewer than
// minBeyond lie beyond, so the figure must not be reported as that
// percentile.
func (s *samples) percentile(p float64) (v float64, beyond int, ok bool) {
	if len(s.ms) == 0 {
		return 0, 0, false
	}
	sort.Float64s(s.ms)
	rank := int(math.Ceil(p * float64(len(s.ms))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s.ms) - rank
	return s.ms[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle value, or the mean of the middle two (0 for
// none).
func (s *samples) median() float64 {
	n := len(s.ms)
	if n == 0 {
		return 0
	}
	sort.Float64s(s.ms)
	if n%2 == 1 {
		return s.ms[n/2]
	}
	return (s.ms[n/2-1] + s.ms[n/2]) / 2
}

// quantiles reports the p50 and p99 of s under name into m, and prints to w
// the sample count with how many samples lie beyond each figure. A p99 resting on
// fewer than minBeyond samples is an error: the run was too short.
func quantiles(w io.Writer, m metricSet, name, unit string, s *samples) error {
	p50, b50, ok50 := s.percentile(0.50)
	p99, b99, ok99 := s.percentile(0.99)
	fmt.Fprintf(w, "%s: n=%d p50=%.4f (%d beyond) p99=%.4f (%d beyond)\n",
		name, len(s.ms), p50, b50, p99, b99)
	if !ok50 || !ok99 {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond p99; run longer", name, len(s.ms), minBeyond)
	}
	m.set(name+".p50", p50, unit)
	m.set(name+".p99", p99, unit)
	return nil
}

// keepFastest is how many of a unit's fastest repetitions give the latency
// figures: more than one, so a single lucky repetition does not set them.
const keepFastest = 3

// repeated is the record of one unit of identical work done again and again
// within a run: a mix sweep, a stream wave. Other
// tenants of a shared host only ever slow a repetition, often for seconds at
// a time, so the fastest repetitions are the steadiest estimate of what the
// work costs; the median moves with however much of the run the host was
// busy.
type repeated struct {
	walls   []time.Duration
	jobs    int   // jobs one repetition completes
	fastest []rep // up to keepFastest repetitions, fastest first
}

// rep is one repetition with each result's time from the repetition's start.
type rep struct {
	wall time.Duration
	lat  *samples
}

// add records a repetition that took wall and completed jobs (the same count
// every time, or the work was not identical), with the times to its results
// in lat; a traced run measures none.
func (r *repeated) add(wall time.Duration, jobs int, lat *samples) error {
	if len(r.walls) > 0 && jobs != r.jobs {
		return fmt.Errorf("repetition %d completed %d jobs, the first %d", len(r.walls), jobs, r.jobs)
	}
	r.walls = append(r.walls, wall)
	r.jobs = jobs
	i := sort.Search(len(r.fastest), func(i int) bool { return r.fastest[i].wall > wall })
	if i < keepFastest {
		r.fastest = slices.Insert(r.fastest, i, rep{wall, lat})
		r.fastest = r.fastest[:min(len(r.fastest), keepFastest)]
	}
	return nil
}

// reportFastest sets jobs_per_s to one repetition of every unit's jobs over
// the sum of their fastest wall times, and latency_ms.p50/.p99 to the
// quantiles of the results of every unit's keepFastest fastest repetitions.
// It prints each unit's repetition walls to w.
func reportFastest(w io.Writer, m metricSet, units ...*repeated) error {
	jobs := 0
	var wall time.Duration
	var pool samples
	for i, u := range units {
		if len(u.walls) == 0 {
			return fmt.Errorf("unit %d never ran", i)
		}
		jobs += u.jobs
		wall += u.fastest[0].wall
		ms := make([]float64, len(u.walls))
		for k, d := range u.walls {
			ms[k] = float64(d) / float64(time.Millisecond)
		}
		fmt.Fprintf(w, "unit %d: %d jobs, %d repetitions, wall ms %.1f\n", i, u.jobs, len(u.walls), ms)
		for _, r := range u.fastest {
			if r.lat != nil {
				pool.merge(r.lat)
			}
		}
	}
	m.set("jobs_per_s", float64(jobs)/wall.Seconds(), "1/s")
	if len(pool.ms) == 0 {
		return nil // a traced run: no latency measured
	}
	return quantiles(w, m, "latency_ms", "ms", &pool)
}

// heapMonitor tracks the peak live heap — bytes that survived the most
// recent GC — by polling the runtime between its start and stop.
type heapMonitor struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64

	gcStart  uint32
	pauseNS0 uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// startHeapMonitor collects garbage left by set-up, so the timed region
// starts from its own live set, and begins polling.
func startHeapMonitor() *heapMonitor {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := &heapMonitor{
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		gcStart:  ms.NumGC,
		pauseNS0: ms.PauseTotalNs,
	}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapMonitor) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// gcStats is what the collector did during a monitored region.
type gcStats struct {
	peakMB  float64
	cycles  int
	pauseMS float64
}

// setGC records the collector's work as per-layer metrics.
func setGC(m metricSet, gc gcStats) {
	m.set("go.gc_cycles", float64(gc.cycles), "count")
	m.set("go.gc_pause_ms", gc.pauseMS, "ms")
}

// finish stops polling, waits for the poller to exit, and returns the peak
// live heap with the GC cycles and pause time since the monitor started.
func (h *heapMonitor) finish() gcStats {
	close(h.stop)
	<-h.done
	h.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	defer h.mu.Unlock()
	return gcStats{
		peakMB:  float64(h.peak) / (1 << 20),
		cycles:  int(ms.NumGC - h.gcStart),
		pauseMS: float64(ms.PauseTotalNs-h.pauseNS0) / 1e6,
	}
}
