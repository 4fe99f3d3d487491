// Package metrics collects the user- and system-level measurements the paper
// evaluates (§IV-D): job turnaround time (overall and per class), on-demand
// instant-start rate, per-class preemption ratios, and system utilization
// derived from an exact node-second ledger.
//
// The ledger partitions every node-second of the observation window into
// useful work, setup overhead, checkpoint overhead, computation lost to
// preemption, reserved-but-idle time, and plain idle time. Utilization
// follows the paper's definition — node time that contributed to completed
// execution, excluding computation wasted by preemption.
package metrics

import (
	"slices"
	"time"

	"hybridsched/internal/job"
	"hybridsched/internal/simtime"
	"hybridsched/internal/stats"
)

// InstantStartTolerance is the start delay still counted as an "instant"
// start: the two-minute malleable warning is the one unavoidable delay the
// mechanisms introduce when an on-demand job must wait for vacating nodes.
const InstantStartTolerance = job.WarningPeriod

// JobResult is the per-job outcome recorded at completion.
type JobResult struct {
	ID           int
	Class        job.Class
	Size         int
	Submit       int64
	Start        int64 // first start
	End          int64
	Turnaround   int64
	StartDelay   int64
	PreemptCount int
	ShrinkCount  int
}

// Collector accumulates simulation measurements. Create with NewCollector.
type Collector struct {
	nodes int

	haveWindow bool
	winStart   int64
	winEnd     int64

	usage          job.Usage
	reservedIdleNS int64
	lastReserved   int
	lastResTime    int64

	// Availability extension: out-of-service node-seconds (failed nodes under
	// repair, drained maintenance windows) and injected-failure counters. All
	// zero — and absent from reports — when the availability model is off.
	// The *AtEnd values clip the ledger to the observation window: fault and
	// repair events keep firing (integrating downtime, counting strikes and
	// misses) after the last job completes — the pre-drawn timeline runs to
	// its horizon — but the report only charges what happened inside
	// winStart..winEnd, so Breakdown stays a partition of the window and the
	// counters do not scale with an arbitrary horizon tail. They are
	// re-closed at every completion — virtual time is monotone, so at that
	// instant the live values are exactly the window integrals. The live
	// values also reset when the window opens (see NoteSubmit), dropping
	// anything accrued before the first submission.
	downNS       int64
	downNSAtEnd  int64
	lastDown     int
	lastDownTime int64
	failures     int
	failMisses   int
	failsAtEnd   int
	missesAtEnd  int

	results  []JobResult
	decision stats.Welford
	maxDecNS int64

	// Streaming mode: per-job results are folded into constant-memory
	// accumulators instead of the results slice, so collector memory stays
	// flat across multi-million-job runs. See EnableStreaming. Streaming
	// collectors are never part of a checkpoint — Engine.Snapshot refuses
	// ReleaseCompleted runs outright — so the codec skips all of them.
	//schedlint:snapfield streaming collectors cannot be snapshotted (Engine.Snapshot refuses ReleaseCompleted)
	streaming bool
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	aggAll classAgg
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	aggRigid classAgg
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	aggOD classAgg
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	aggMall classAgg
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	odInstant int
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	odStrict int
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	odStreamed int
	//schedlint:snapfield streaming-only accumulator, unreachable in snapshots
	delaySum float64
}

// classAgg is streaming mode's constant-memory substitute for a per-class
// result slice: single-pass moments plus extrema.
type classAgg struct {
	w         stats.Welford
	min, max  float64
	sum       float64
	preempted int
}

func (a *classAgg) add(t float64, preempted bool) {
	if a.w.N() == 0 || t < a.min {
		a.min = t
	}
	if a.w.N() == 0 || t > a.max {
		a.max = t
	}
	a.w.Add(t)
	a.sum += t
	if preempted {
		a.preempted++
	}
}

// stats renders the accumulator as ClassStats. Rank statistics (median, P90,
// P99) need the full sample and are reported as zero in streaming mode.
func (a *classAgg) stats() ClassStats {
	cs := ClassStats{Count: a.w.N(), PreemptedJobs: a.preempted}
	if cs.Count == 0 {
		return cs
	}
	cs.Turnaround = stats.Summary{
		N: a.w.N(), Mean: a.w.Mean(), Std: a.w.Std(),
		Min: a.min, Max: a.max, Sum: a.sum,
	}
	cs.PreemptRatio = float64(a.preempted) / float64(cs.Count)
	cs.MeanTurnaroundH = cs.Turnaround.Mean / float64(simtime.Hour)
	return cs
}

// NewCollector returns a collector for a system of the given node count.
func NewCollector(nodes int) *Collector {
	return &Collector{nodes: nodes}
}

// NoteSubmit opens (or extends) the observation window at the first
// submission instant. Incremental sessions call it once per submission, in
// any order; the window start tracks the minimum.
func (c *Collector) NoteSubmit(t int64) {
	if !c.haveWindow {
		c.winStart, c.winEnd, c.lastResTime, c.lastDownTime = t, t, t, t
		// Open the availability ledger fresh: downtime and failures from
		// before the first submission (a drain opened at t=0, a timeline
		// head before the trace starts) fall outside the window.
		c.downNS, c.failures, c.failMisses = 0, 0, 0
		c.haveWindow = true
		return
	}
	if t < c.winStart {
		c.winStart = t
		// Before any reservation has been observed the idle integral is
		// empty, so the integration origin moves back with the window; this
		// keeps out-of-order pre-run submissions equivalent to a batch load.
		if c.lastReserved == 0 && c.reservedIdleNS == 0 && t < c.lastResTime {
			c.lastResTime = t
		}
		if c.lastDown == 0 && c.downNS == 0 && t < c.lastDownTime {
			c.lastDownTime = t
		}
	}
}

// NoteReserved integrates reserved-node idle time up to now and records the
// new reservation level. Call it whenever time advances in the simulation.
func (c *Collector) NoteReserved(now int64, reservedNodes int) {
	if now > c.lastResTime {
		c.reservedIdleNS += int64(c.lastReserved) * (now - c.lastResTime)
		c.lastResTime = now
	}
	c.lastReserved = reservedNodes
}

// NoteDown integrates out-of-service node time up to now and records the new
// down-node level. The engine calls it whenever time advances, mirroring
// NoteReserved; with the availability model off the level is always zero and
// the integral stays empty.
func (c *Collector) NoteDown(now int64, downNodes int) {
	if now > c.lastDownTime {
		c.downNS += int64(c.lastDown) * (now - c.lastDownTime)
		c.lastDownTime = now
	}
	c.lastDown = downNodes
}

// downThrough projects the down integral to virtual time t (no mutation).
func (c *Collector) downThrough(t int64) int64 {
	ns := c.downNS
	if t > c.lastDownTime {
		ns += int64(c.lastDown) * (t - c.lastDownTime)
	}
	return ns
}

// NoteFailure records one injected node failure; struck reports whether it
// interrupted a job holding the node (a miss hit a free, reserved, or
// already-down node).
func (c *Collector) NoteFailure(struck bool) {
	if struck {
		c.failures++
	} else {
		c.failMisses++
	}
}

// AddUsage merges an incarnation's node-second usage into the ledger.
func (c *Collector) AddUsage(u job.Usage) { c.usage = addUsage(c.usage, u) }

func addUsage(a, b job.Usage) job.Usage {
	a.Useful += b.Useful
	a.Setup += b.Setup
	a.Ckpt += b.Ckpt
	a.Lost += b.Lost
	return a
}

// EnableStreaming switches the collector to constant-memory aggregation:
// completions fold into running per-class moments instead of the retained
// results slice. Reports from a streaming collector carry no PerJob list and
// no rank statistics (median/P90/P99 read as zero); means, extrema, counts,
// rates, and the node-second ledger are exact. Enable before the first
// completion; results recorded earlier stay in the retained slice and are
// not merged.
func (c *Collector) EnableStreaming() { c.streaming = true }

// Reserve sizes the results slice for n more completions, so a run whose job
// count is known up front records them without regrowing it. Streaming
// collectors keep no results and ignore it.
func (c *Collector) Reserve(n int) {
	if !c.streaming {
		c.results = slices.Grow(c.results, n)
	}
}

// NoteComplete records a completed job and extends the observation window.
func (c *Collector) NoteComplete(j *job.Job) {
	if c.streaming {
		t := float64(j.Turnaround())
		pre := j.PreemptCount > 0
		c.aggAll.add(t, pre)
		switch j.Class {
		case job.Rigid:
			c.aggRigid.add(t, pre)
		case job.OnDemand:
			c.aggOD.add(t, pre)
			c.odStreamed++
			c.delaySum += float64(j.StartDelay())
			if j.StartDelay() <= InstantStartTolerance {
				c.odInstant++
			}
			if j.StartDelay() == 0 {
				c.odStrict++
			}
		case job.Malleable:
			c.aggMall.add(t, pre)
		}
		if j.EndTime > c.winEnd {
			c.winEnd = j.EndTime
		}
		c.downNSAtEnd = c.downThrough(c.winEnd)
		c.failsAtEnd, c.missesAtEnd = c.failures, c.failMisses
		return
	}
	r := JobResult{
		ID:           j.ID,
		Class:        j.Class,
		Size:         j.Size,
		Submit:       j.SubmitTime,
		Start:        j.StartTime,
		End:          j.EndTime,
		Turnaround:   j.Turnaround(),
		StartDelay:   j.StartDelay(),
		PreemptCount: j.PreemptCount,
		ShrinkCount:  j.ShrinkCount,
	}
	c.results = append(c.results, r)
	if j.EndTime > c.winEnd {
		c.winEnd = j.EndTime
	}
	c.downNSAtEnd = c.downThrough(c.winEnd)
	c.failsAtEnd, c.missesAtEnd = c.failures, c.failMisses
}

// NoteDecision records the wall-clock latency of one mechanism decision
// (paper Obs. 10: decisions must complete in well under 10-30 s).
func (c *Collector) NoteDecision(d time.Duration) {
	ns := d.Nanoseconds()
	c.decision.Add(float64(ns))
	if ns > c.maxDecNS {
		c.maxDecNS = ns
	}
}

// Results returns the recorded per-job outcomes (shared slice; do not
// modify).
func (c *Collector) Results() []JobResult { return c.results }

// Snapshot is a point-in-time view of the ledger for live observation,
// taken without disturbing the collector. The reserved-idle integral is
// closed exactly at the snapshot instant. Usage — and the Utilization
// derived from it — covers finalized incarnations only: in-flight execution
// is charged when a job completes or is preempted, so early in a run
// Utilization lags the instantaneous busy fraction and converges as jobs
// finish (compare against the cluster's busy-node count for a live
// occupancy figure).
type Snapshot struct {
	Now         int64
	WindowStart int64 // first submission seen (0 if none yet)
	Completed   int   // jobs completed so far

	Usage                   job.Usage // node-second ledger so far
	ReservedIdleNodeSeconds int64

	// Availability extension: out-of-service node-seconds so far and the
	// injected-failure counters (zero with the availability model off).
	DownNodeSeconds int64
	Failures        int
	FailureMisses   int

	// Utilization is the paper's definition — (useful + setup + checkpoint)
	// node-seconds over the window start..Now — accrued from completed and
	// preempted incarnations (running jobs contribute at finalization).
	Utilization float64
}

// Snapshot returns the live measurements as of virtual time now. It never
// mutates the collector, so interleaving snapshots with a run is safe.
func (c *Collector) Snapshot(now int64) Snapshot {
	s := Snapshot{Now: now, Completed: len(c.results), Usage: c.usage,
		ReservedIdleNodeSeconds: c.reservedIdleNS,
		DownNodeSeconds:         c.downNS,
		Failures:                c.failures,
		FailureMisses:           c.failMisses}
	if !c.haveWindow {
		return s
	}
	s.WindowStart = c.winStart
	if now > c.lastResTime {
		s.ReservedIdleNodeSeconds += int64(c.lastReserved) * (now - c.lastResTime)
	}
	if now > c.lastDownTime {
		s.DownNodeSeconds += int64(c.lastDown) * (now - c.lastDownTime)
	}
	if total := float64(c.nodes) * float64(now-c.winStart); total > 0 {
		s.Utilization = (float64(c.usage.Useful) + float64(c.usage.Setup) +
			float64(c.usage.Ckpt)) / total
	}
	return s
}

// ClassStats summarizes turnaround for one job class.
type ClassStats struct {
	Count           int
	Turnaround      stats.Summary // seconds
	PreemptedJobs   int
	PreemptRatio    float64
	MeanTurnaroundH float64
}

// UtilizationBreakdown partitions the window's node-seconds into fractions.
// Unavailable is the availability extension's share (failed nodes under
// repair, drained maintenance windows); it is zero — and omitted from the
// JSON form — when the availability model is off, so canonical reports of
// clean runs are unchanged by its existence.
type UtilizationBreakdown struct {
	Useful       float64
	Setup        float64
	Ckpt         float64
	Lost         float64
	ReservedIdle float64
	Unavailable  float64 `json:",omitempty"`
	Idle         float64
}

// Report is the final set of measurements for one simulation run.
type Report struct {
	Nodes    int
	Jobs     int
	Makespan int64 // seconds, first submit to last completion

	All       ClassStats
	Rigid     ClassStats
	OnDemand  ClassStats
	Malleable ClassStats

	// Utilization per the paper: (useful + setup + checkpoint) node-seconds
	// over the whole window, excluding computation lost to preemption.
	Utilization float64
	Breakdown   UtilizationBreakdown

	// On-demand responsiveness.
	InstantStartRate       float64 // start delay <= InstantStartTolerance
	StrictInstantStartRate float64 // start delay == 0
	MeanStartDelay         float64 // seconds

	// Availability extension (all zero, and omitted from the JSON form, when
	// the availability model is off — clean-run reports stay byte-identical).
	// All three are clipped to the observation window (winStart..winEnd), so
	// they do not depend on how far past the workload the fault timeline's
	// horizon happens to extend.
	FailuresInjected int   `json:",omitempty"` // node failures that struck a job
	FailureMisses    int   `json:",omitempty"` // failures that hit no job
	DownNodeSeconds  int64 `json:",omitempty"` // out-of-service node-seconds

	// Mechanism decision latency (wall clock).
	DecisionCount  int
	MeanDecisionMs float64
	MaxDecisionMs  float64

	// PerJob lists the outcome of every completed job, in completion order.
	PerJob []JobResult
}

// Report computes the final metrics. The reserved-idle integral is closed at
// the window end.
func (c *Collector) Report() Report {
	r := Report{Nodes: c.nodes, Jobs: len(c.results), PerJob: c.results}
	if c.streaming {
		r.Jobs = c.aggAll.w.N()
		r.PerJob = nil
	}
	if !c.haveWindow {
		return r
	}
	c.NoteReserved(c.winEnd, c.lastReserved) // close the integral
	r.Makespan = c.winEnd - c.winStart
	r.FailuresInjected = c.failsAtEnd
	r.FailureMisses = c.missesAtEnd
	r.DownNodeSeconds = c.downNSAtEnd
	if c.streaming {
		r.All = c.aggAll.stats()
		r.Rigid = c.aggRigid.stats()
		r.OnDemand = c.aggOD.stats()
		r.Malleable = c.aggMall.stats()
		if c.odStreamed > 0 {
			r.InstantStartRate = float64(c.odInstant) / float64(c.odStreamed)
			r.StrictInstantStartRate = float64(c.odStrict) / float64(c.odStreamed)
			r.MeanStartDelay = c.delaySum / float64(c.odStreamed)
		}
		c.finishReport(&r)
		return r
	}

	// Each class sample is sorted once; the all-jobs sample is their merge.
	var turnR, turnO, turnM, turnX []float64
	var preR, preM, preO, preAll int
	var odInstant, odStrict, odCount int
	var delaySum float64
	for _, res := range c.results {
		t := float64(res.Turnaround)
		switch res.Class {
		case job.Rigid:
			turnR = append(turnR, t)
			if res.PreemptCount > 0 {
				preR++
			}
		case job.OnDemand:
			turnO = append(turnO, t)
			odCount++
			delaySum += float64(res.StartDelay)
			if res.StartDelay <= InstantStartTolerance {
				odInstant++
			}
			if res.StartDelay == 0 {
				odStrict++
			}
			if res.PreemptCount > 0 {
				preO++
			}
		case job.Malleable:
			turnM = append(turnM, t)
			if res.PreemptCount > 0 {
				preM++
			}
		default: // no class of its own, but counted in All
			turnX = append(turnX, t)
		}
		if res.PreemptCount > 0 {
			preAll++
		}
	}
	for _, turn := range [][]float64{turnR, turnO, turnM, turnX} {
		slices.Sort(turn)
	}
	r.All = classStats(mergeSorted(turnR, turnO, turnM, turnX), preAll)
	r.Rigid = classStats(turnR, preR)
	r.OnDemand = classStats(turnO, preO)
	r.Malleable = classStats(turnM, preM)

	if odCount > 0 {
		r.InstantStartRate = float64(odInstant) / float64(odCount)
		r.StrictInstantStartRate = float64(odStrict) / float64(odCount)
		r.MeanStartDelay = delaySum / float64(odCount)
	}
	c.finishReport(&r)
	return r
}

// finishReport fills the sample-independent tail of a report: the node-second
// utilization breakdown and decision-latency stats.
func (c *Collector) finishReport(r *Report) {
	total := float64(c.nodes) * float64(r.Makespan)
	if total > 0 {
		u := c.usage
		r.Utilization = (float64(u.Useful) + float64(u.Setup) + float64(u.Ckpt)) / total
		r.Breakdown = UtilizationBreakdown{
			Useful:       float64(u.Useful) / total,
			Setup:        float64(u.Setup) / total,
			Ckpt:         float64(u.Ckpt) / total,
			Lost:         float64(u.Lost) / total,
			ReservedIdle: float64(c.reservedIdleNS) / total,
			Unavailable:  float64(c.downNSAtEnd) / total,
		}
		r.Breakdown.Idle = 1 - r.Breakdown.Useful - r.Breakdown.Setup -
			r.Breakdown.Ckpt - r.Breakdown.Lost - r.Breakdown.ReservedIdle -
			r.Breakdown.Unavailable
	}

	r.DecisionCount = c.decision.N()
	r.MeanDecisionMs = c.decision.Mean() / 1e6
	r.MaxDecisionMs = float64(c.maxDecNS) / 1e6
}

// classStats summarizes one class's turnaround sample, which must be sorted.
func classStats(turn []float64, preempted int) ClassStats {
	cs := ClassStats{Count: len(turn), PreemptedJobs: preempted}
	cs.Turnaround = stats.SummarizeSorted(turn)
	if cs.Count > 0 {
		cs.PreemptRatio = float64(preempted) / float64(cs.Count)
		cs.MeanTurnaroundH = cs.Turnaround.Mean / float64(simtime.Hour)
	}
	return cs
}

// mergeSorted merges ascending samples into one ascending sample.
func mergeSorted(samples ...[]float64) []float64 {
	n := 0
	for _, s := range samples {
		n += len(s)
	}
	out := make([]float64, 0, n)
	for len(out) < n {
		m := -1
		for i, s := range samples {
			if len(s) > 0 && (m < 0 || s[0] < samples[m][0]) {
				m = i
			}
		}
		out = append(out, samples[m][0])
		samples[m] = samples[m][1:]
	}
	return out
}
