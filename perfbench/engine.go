package main

import (
	"time"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/core"
	"hybridsched/internal/faults"
	"hybridsched/internal/registry"
	"hybridsched/internal/runner"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
)

// cellSpec is one engine to build: the same knobs a sweep cell resolves to
// (see runner.Spec), with the paper defaults filled in by the caller.
type cellSpec struct {
	mech  string
	nodes int
	mtbf  float64 // checkpoint-planning MTBF, seconds

	faultMTBF    float64 // > 0 injects node failures
	faultRepair  float64
	faultSeed    int64
	faultHorizon int64
	drains       []runner.DrainSpec
}

// buildEngine materializes recs and builds an engine the way the sweep runner
// builds a cell: Daly checkpoint plans, the named scheduler with the default
// core configuration, the fault injector when configured, FCFS ordering, and
// any drains.
func buildEngine(c cellSpec, recs []trace.Record) (*sim.Engine, error) {
	jobs := trace.Materialize(recs, func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, c.mtbf, 1)
	})
	cc := core.DefaultConfig()
	mech, err := registry.NewScheduler(c.mech, registry.SchedulerConfig{
		ReleaseThreshold: cc.ReleaseThreshold,
		DirectedReturn:   cc.DirectedReturn,
		BackfillReserved: cc.BackfillReserved,
	})
	if err != nil {
		return nil, err
	}
	if c.faultMTBF > 0 {
		mech = faults.Wrap(mech, faults.Config{
			MTBF:       c.faultMTBF,
			Seed:       c.faultSeed,
			Horizon:    c.faultHorizon,
			MeanRepair: c.faultRepair,
		})
	}
	e, err := sim.New(sim.Config{Nodes: c.nodes, Policy: registry.PolicyByName("fcfs")}, jobs, mech)
	if err != nil {
		return nil, err
	}
	for _, d := range c.drains {
		if err := e.ScheduleDrain(d.Start, d.Duration, d.Nodes); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// defaultMTBF is the checkpoint-planning MTBF of an unfaulted cell (24 h).
const defaultMTBF = 24 * float64(simtime.Hour)

// stepKind labels one Engine.Step by the first event it emitted.
type stepKind int

const (
	kindSilent    stepKind = iota // emitted nothing: a pass that started nothing, a skipped pass, a timer
	kindArrival                   // a job arrived
	kindNotice                    // an on-demand advance notice
	kindPassStart                 // a scheduler pass that started at least one job
	kindEnd                       // a completion
	kindPreempt                   // a preemption, warning, resize, or checkpoint rollback
	kindNodes                     // a failure, repair, or drain
	numKinds
)

var kindNames = [numKinds]string{"silent", "arrival", "notice", "pass_start", "end", "preempt", "nodes"}

func kindOf(t sim.EventType) stepKind {
	switch t {
	case sim.EventArrival:
		return kindArrival
	case sim.EventNotice:
		return kindNotice
	case sim.EventStart:
		return kindPassStart
	case sim.EventEnd:
		return kindEnd
	case sim.EventNodeDown, sim.EventNodeUp, sim.EventDrain:
		return kindNodes
	}
	return kindPreempt
}

// stepTracer times Engine.Step calls from outside and classifies each by the
// first event the engine emitted through its event sink during the call.
type stepTracer struct {
	seen  bool
	first stepKind

	ns     [numKinds]int64
	n      [numKinds]int
	starts int
	events int // dispatched events of finished engines

	depthMax int
	depthSum int64
	depthN   int64
}

// attach installs the tracer as e's event sink.
func (t *stepTracer) attach(e *sim.Engine) {
	e.SetEventSink(func(ev sim.Event) {
		if !t.seen {
			t.seen, t.first = true, kindOf(ev.Type)
		}
		if ev.Type == sim.EventStart {
			t.starts++
		}
	})
}

// step runs one timed, classified Engine.Step and samples the queue depth. A
// call that finds nothing left to do is not counted.
func (t *stepTracer) step(e *sim.Engine) (bool, error) {
	t.seen = false
	start := time.Now()
	more, err := e.Step()
	d := time.Since(start)
	if !more {
		return more, err
	}
	k := kindSilent
	if t.seen {
		k = t.first
	}
	t.ns[k] += int64(d)
	t.n[k]++
	depth := e.QueueDepth()
	t.depthMax = max(t.depthMax, depth)
	t.depthSum += int64(depth)
	t.depthN++
	return more, err
}

// drain steps e until it has nothing left to do.
func (t *stepTracer) drain(e *sim.Engine) error {
	for {
		more, err := t.step(e)
		if err != nil {
			return err
		}
		if !more {
			t.events += e.DispatchedCount()
			return nil
		}
	}
}

// total is the wall time spent inside Step.
func (t *stepTracer) total() time.Duration {
	var sum int64
	for _, ns := range t.ns {
		sum += ns
	}
	return time.Duration(sum)
}

// report writes the sim-layer metrics; region is the timed wall time the
// step total is a share of.
func (t *stepTracer) report(m metricSet, region time.Duration) {
	for k, name := range kindNames {
		m.set("sim.step."+name+".ms", float64(t.ns[k])/1e6, "ms")
		m.set("sim.step."+name+".n", float64(t.n[k]), "count")
	}
	m.set("sim.events", float64(t.events), "count")
	m.set("sim.starts", float64(t.starts), "count")
	m.set("sim.queue_depth.max", float64(t.depthMax), "count")
	if t.depthN > 0 {
		m.set("sim.queue_depth.mean", float64(t.depthSum)/float64(t.depthN), "count")
	}
	if region > 0 {
		m.set("sim.step.share_pct", 100*float64(t.total())/float64(region), "%")
	}
}
