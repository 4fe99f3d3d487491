package main

import (
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
)

// TestStepClassifierThreeJobs steps a hand-built engine whose schedule is
// known exactly: on 4 nodes, jobs 1 and 2 (2 nodes each) arrive at t=0 and
// start together; job 3 (4 nodes) arrives at t=50 and waits for both.
//
//	t=0   arrival 1, arrival 2, pass starts 1+2
//	t=50  arrival 3, pass starts nothing (silent)
//	t=100 end 1, pass cannot fit 3 (silent)
//	t=200 end 2, pass starts 3
//	t=300 end 3, pass over an empty queue (silent)
func TestStepClassifierThreeJobs(t *testing.T) {
	jobs := []*job.Job{
		job.NewRigid(1, 0, 0, 2, 100, 100, 0, checkpoint.Plan{}),
		job.NewRigid(2, 0, 0, 2, 200, 200, 0, checkpoint.Plan{}),
		job.NewRigid(3, 0, 50, 4, 100, 100, 0, checkpoint.Plan{}),
	}
	e, err := sim.New(sim.Config{Nodes: 4}, jobs, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	var st stepTracer
	st.attach(e)
	if err := st.drain(e); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"arrival": 3, "pass_start": 2, "end": 3, "silent": 3, "notice": 0, "preempt": 0, "nodes": 0}
	for k, name := range kindNames {
		if st.n[k] != want[name] {
			t.Errorf("%s steps = %d, want %d", name, st.n[k], want[name])
		}
	}
	if st.starts != 3 || st.events != 11 {
		t.Errorf("starts = %d, events = %d; want 3 and 11", st.starts, st.events)
	}
	if st.depthMax != 2 {
		t.Errorf("max queue depth %d, want 2 (jobs 1 and 2 before the first pass)", st.depthMax)
	}

	m := metricSet{}
	st.report(m, st.total())
	if got := m["sim.step.pass_start.n"].Value; got != 2 {
		t.Errorf("reported pass_start.n = %g, want 2", got)
	}
	if got := m["sim.step.share_pct"].Value; got != 100 {
		t.Errorf("step share of the steps' own time = %g%%, want 100", got)
	}
}

func TestKindOfCoversEveryEventType(t *testing.T) {
	for typ, want := range map[sim.EventType]stepKind{
		sim.EventArrival: kindArrival, sim.EventNotice: kindNotice,
		sim.EventStart: kindPassStart, sim.EventEnd: kindEnd,
		sim.EventWarning: kindPreempt, sim.EventPreempt: kindPreempt,
		sim.EventShrink: kindPreempt, sim.EventExpand: kindPreempt,
		sim.EventCheckpoint: kindPreempt, sim.EventNodeDown: kindNodes,
		sim.EventNodeUp: kindNodes, sim.EventDrain: kindNodes,
	} {
		if got := kindOf(typ); got != want {
			t.Errorf("kindOf(%v) = %s, want %s", typ, kindNames[got], kindNames[want])
		}
	}
}
