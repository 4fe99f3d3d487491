package sim

import (
	"testing"

	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
)

// recordEvents installs a sink collecting every emitted event.
func recordEvents(e *Engine) *[]Event {
	events := &[]Event{}
	e.SetEventSink(func(ev Event) { *events = append(*events, ev) })
	return events
}

func countEvents(events []Event, t EventType, jobID int) int {
	n := 0
	for _, ev := range events {
		if ev.Type == t && ev.Job == jobID {
			n++
		}
	}
	return n
}

func TestDrainShrinksCapacitySeenByScheduler(t *testing.T) {
	// 100 nodes, 40 drained for [0, 5000). An 80-node job submitted at t=10
	// cannot fit in the remaining 60 and must wait for the window to close.
	a := rigid(1, 10, 80, 100)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleDrain(0, 5000, 40); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.StartTime != 5000 {
		t.Fatalf("job started at %d, want 5000 (drain end)", a.StartTime)
	}
	if e.DownCount() != 0 || e.AvailableNodes() != 100 {
		t.Fatalf("capacity not restored: down=%d", e.DownCount())
	}
	// Level 40 from the window start (first submit, t=10) to drain end.
	if want := int64(40 * (5000 - 10)); rep.DownNodeSeconds != want {
		t.Fatalf("DownNodeSeconds = %d, want %d", rep.DownNodeSeconds, want)
	}
	if rep.Breakdown.Unavailable <= 0 {
		t.Fatal("Unavailable share missing from the breakdown")
	}
}

func TestDrainAbsorbsFreedNodesWithoutPreempting(t *testing.T) {
	// a holds all 100 nodes until t=1000. A 50-node drain opening at t=100
	// must not preempt it; it absorbs 50 of the nodes a frees and returns
	// them at t=5100, delaying the 100-node job b until then.
	a := rigid(1, 0, 100, 1000)
	b := rigid(2, 50, 100, 100)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a, b}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	events := recordEvents(e)
	if err := e.ScheduleDrain(100, 5000, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.PreemptCount != 0 {
		t.Fatal("drain preempted a running job")
	}
	if b.StartTime != 5100 {
		t.Fatalf("b started at %d, want 5100 (drain close)", b.StartTime)
	}
	var saw []Event
	for _, ev := range *events {
		if ev.Type == EventDrain || ev.Type == EventNodeDown || ev.Type == EventNodeUp {
			saw = append(saw, ev)
		}
	}
	want := []Event{
		{Type: EventDrain, Time: 100, Job: -1, Nodes: 50},
		{Type: EventNodeDown, Time: 1000, Job: -1, Nodes: 50},
		{Type: EventNodeUp, Time: 5100, Job: -1, Nodes: 50},
	}
	if len(saw) != len(want) {
		t.Fatalf("availability events %v, want %v", saw, want)
	}
	for i := range want {
		if saw[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, saw[i], want[i])
		}
	}
}

func TestFailNodeInterruptsJobAndRepairs(t *testing.T) {
	// a holds every node; a failure at t=500 with a 200 s repair preempts it
	// (no checkpointing: restart from scratch) and keeps one node out of
	// service until t=700, when a can start again at full size.
	a := rigid(1, 0, 100, 1000)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleNodeFailure(500, 7, 200); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.PreemptCount != 1 {
		t.Fatalf("preempt count %d", a.PreemptCount)
	}
	if a.StartTime != 0 || a.EndTime != 700+1000 {
		t.Fatalf("restart wrong: start %d end %d, want end 1700", a.StartTime, a.EndTime)
	}
	if rep.FailuresInjected != 1 || rep.FailureMisses != 0 {
		t.Fatalf("failure counters %d/%d", rep.FailuresInjected, rep.FailureMisses)
	}
	if rep.DownNodeSeconds != 200 {
		t.Fatalf("DownNodeSeconds = %d, want 200", rep.DownNodeSeconds)
	}
}

func TestFailNodeInstantRepairKeepsCapacity(t *testing.T) {
	// The legacy shortcut: repairAfter <= 0 preempts the victim but never
	// shrinks capacity, so the job restarts at the failure instant.
	a := rigid(1, 0, 100, 1000)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	events := recordEvents(e)
	if err := e.ScheduleNodeFailure(500, 3, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != 500+1000 {
		t.Fatalf("end %d, want 1500", a.EndTime)
	}
	if rep.FailuresInjected != 1 || rep.DownNodeSeconds != 0 {
		t.Fatalf("instant repair recorded downtime: %d failures, %d down node-seconds",
			rep.FailuresInjected, rep.DownNodeSeconds)
	}
	if n := countEvents(*events, EventNodeDown, -1); n != 0 {
		t.Fatalf("instant repair emitted %d node-down events", n)
	}
}

func TestFailNodeOnIdleNodeIsAMissButRemovesCapacity(t *testing.T) {
	a := rigid(1, 0, 50, 1000)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleNodeFailure(100, 99, 500); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.PreemptCount != 0 {
		t.Fatal("idle-node failure preempted the job")
	}
	if rep.FailuresInjected != 0 || rep.FailureMisses != 1 {
		t.Fatalf("failure counters %d/%d, want 0/1", rep.FailuresInjected, rep.FailureMisses)
	}
	if rep.DownNodeSeconds <= 0 {
		t.Fatal("idle-node failure removed no capacity")
	}
}

// warnThenFail preempts job 1 (malleable) with a warning at t=500, then
// fails one of its nodes at t=550 — inside the 120 s warning window.
type warnThenFail struct {
	Baseline
	e            *Engine
	expired      int
	expiredClaim int
	failRepair   int64
}

func (m *warnThenFail) Attach(e *Engine) { m.e = e; e.ScheduleTimer(500, "warn") }

func (m *warnThenFail) OnTimer(p any) {
	switch p {
	case "warn":
		m.e.PreemptMalleableWithWarning(m.e.JobByID(1), 42)
		m.e.ScheduleTimer(550, "fail")
	case "fail":
		m.e.FailNode(0, m.failRepair)
	}
}

func (m *warnThenFail) OnWarningExpired(j *job.Job, claim int, freed *nodeset.Set) {
	m.expired++
	m.expiredClaim = claim
}

func TestFailureMidWarningDoesNotDoubleFreeNodes(t *testing.T) {
	// A malleable job struck by a node failure inside its preemption warning
	// must release its nodes exactly once: the pending expiry is cancelled,
	// the mechanism sees one OnWarningExpired with the original claim, and
	// the cluster partition invariant (checked after every event) holds.
	m := &warnThenFail{failRepair: 300}
	a := malleable(1, 0, 50, 10, 5000)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, m)
	if err != nil {
		t.Fatal(err)
	}
	events := recordEvents(e)
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.expired != 1 || m.expiredClaim != 42 {
		t.Fatalf("OnWarningExpired fired %d times (claim %d), want once with claim 42",
			m.expired, m.expiredClaim)
	}
	// Exactly one preemption of job 1: the forced early expiry at t=550. The
	// original expiry at t=620 must not fire a second release.
	if n := countEvents(*events, EventPreempt, 1); n != 1 {
		t.Fatalf("job 1 preempted %d times, want 1", n)
	}
	for _, ev := range *events {
		if ev.Type == EventPreempt && ev.Job == 1 && ev.Time != 550 {
			t.Fatalf("preempt at t=%d, want t=550", ev.Time)
		}
	}
	if rep.FailuresInjected != 1 {
		t.Fatalf("failure not counted as a strike: %d", rep.FailuresInjected)
	}
	if rep.Jobs != 1 {
		t.Fatalf("job did not complete: %d", rep.Jobs)
	}
}

func TestScheduleDrainValidation(t *testing.T) {
	e, err := New(Config{Nodes: 100}, nil, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		start, dur int64
		count      int
	}{
		{0, 100, 0},    // no nodes
		{0, 100, 101},  // more than the system
		{0, 0, 10},     // zero duration
		{-50, 100, 10}, // in the past
	} {
		if err := e.ScheduleDrain(c.start, c.dur, c.count); err == nil {
			t.Errorf("ScheduleDrain(%d, %d, %d) accepted", c.start, c.dur, c.count)
		}
	}
}

func TestScheduleNodeFailureValidation(t *testing.T) {
	e, err := New(Config{Nodes: 100}, nil, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleNodeFailure(0, -1, 10); err == nil {
		t.Error("negative node accepted")
	}
	if err := e.ScheduleNodeFailure(0, 100, 10); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestFailNodeOnDownNodeIsANoOp(t *testing.T) {
	// Two failures of the same node: the second finds it already down and
	// must count as a miss without scheduling a second repair.
	a := rigid(1, 0, 10, 2000)
	e, err := New(Config{Nodes: 100, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleNodeFailure(100, 50, 1000); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleNodeFailure(200, 50, 1000); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailureMisses != 2 {
		t.Fatalf("misses %d, want 2 (idle node, then already-down node)", rep.FailureMisses)
	}
	if rep.DownNodeSeconds != 1000 {
		t.Fatalf("DownNodeSeconds = %d, want 1000 (one repair window)", rep.DownNodeSeconds)
	}
}

func TestFailureOnDownNodeStillRequestsPass(t *testing.T) {
	// 11 nodes: r holds 8 until t=1000 and node 10 fails at t=5 for the rest
	// of the run, leaving 2 free. Under WFP3, a (10 nodes) heads the queue
	// when b (2 nodes) arrives; b cannot backfill — it would outlast r, whose
	// end is a's shadow, and a leaves no extra nodes — but outranks a from
	// t~79. The second failure of node 10 at t=100 is a miss that changes
	// nothing, yet the pass after it re-sorts the queue and starts b as head.
	r := rigid(1, 0, 8, 1000)
	a := rigidEst(2, 10, 10, 2000, 2000)
	b := rigidEst(3, 20, 2, 1000, 1000)
	e, err := New(Config{Nodes: 11, Policy: policy.WFP3{}, Validate: true}, []*job.Job{r, a, b}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{5, 100} {
		if err := e.ScheduleNodeFailure(at, 10, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.StartTime != 100 {
		t.Fatalf("b started at %d, want 100 (the pass after the down-node miss)", b.StartTime)
	}
}

func TestDowntimeClippedToObservationWindow(t *testing.T) {
	// A drain that outlasts the last completion by weeks: the report must
	// charge only the downtime inside the observation window, or the
	// breakdown fractions stop being a partition (Idle goes negative).
	a := rigid(1, 0, 64, 7200)
	e, err := New(Config{Nodes: 256, Validate: true}, []*job.Job{a}, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleDrain(3600, 2_000_000, 64); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Window is 0..7200; the drain holds 64 nodes from t=3600 on.
	if want := int64(64 * (7200 - 3600)); rep.DownNodeSeconds != want {
		t.Fatalf("DownNodeSeconds = %d, want %d (clipped to the window)", rep.DownNodeSeconds, want)
	}
	if rep.Breakdown.Idle < 0 {
		t.Fatalf("Idle share %g went negative", rep.Breakdown.Idle)
	}
	if rep.Breakdown.Unavailable > 1 {
		t.Fatalf("Unavailable share %g exceeds the window", rep.Breakdown.Unavailable)
	}
}
