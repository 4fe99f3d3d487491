package sim

import (
	"strings"
	"testing"

	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
)

// attach builds an engine without running it, for direct primitive tests.
func attach(t *testing.T, cfg Config, jobs []*job.Job, mech Mechanism) *Engine {
	t.Helper()
	e, err := New(cfg, jobs, mech)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// forceRunning marks a registered job as holding nodes, bypassing startJob,
// for direct primitive tests.
func forceRunning(e *Engine, j *job.Job) {
	e.mustEnt(j).running = true
	e.addRunning(j)
}

func TestPreemptMalleableNowPrimitive(t *testing.T) {
	m := malleable(1, 0, 80, 16, 1000)
	e := attach(t, Config{Nodes: 100}, []*job.Job{m}, Baseline{})
	m.State = job.Waiting
	e.Cluster().AllocFree(1, 80)
	forceRunning(e, m)
	m.StartMalleable(0, 80)
	e.clk = 500

	freed := e.PreemptMalleableNow(m)
	if freed.Len() != 80 {
		t.Fatalf("freed %d", freed.Len())
	}
	if m.State != job.Waiting || m.PreemptCount != 1 {
		t.Fatalf("state %v preempts %d", m.State, m.PreemptCount)
	}
	// Progress survived the crash-style preemption.
	if m.RemainingWork() != 1000*80-500*80 {
		t.Fatalf("remaining %d", m.RemainingWork())
	}
	if !e.Queued(1) {
		t.Fatal("victim must requeue")
	}
}

func TestPreemptMalleableNowGuards(t *testing.T) {
	r := rigid(1, 0, 10, 100)
	e := attach(t, Config{Nodes: 100}, []*job.Job{r}, Baseline{})
	e.PreemptMalleableNow(r) // wrong class: records an error
	if e.err == nil {
		t.Fatal("expected engine error")
	}
}

func TestShrinkGuards(t *testing.T) {
	m := malleable(1, 0, 80, 16, 1000)
	e := attach(t, Config{Nodes: 100}, []*job.Job{m}, Baseline{})
	m.State = job.Waiting
	e.Cluster().AllocFree(1, 40)
	forceRunning(e, m)
	m.StartMalleable(0, 40)
	// Growing via "shrink" is a bug.
	e.ShrinkMalleable(m, 50)
	if e.err == nil {
		t.Fatal("expected engine error for shrink-to-larger")
	}
}

func TestExpandGuards(t *testing.T) {
	m := malleable(1, 0, 80, 16, 1000)
	e := attach(t, Config{Nodes: 100}, []*job.Job{m}, Baseline{})
	m.State = job.Waiting
	e.Cluster().AllocFree(1, 80)
	forceRunning(e, m)
	m.StartMalleable(0, 80)
	grant := e.Cluster().FreeSet().Pick(5)
	e.ExpandMalleable(m, grant) // already at max: error
	if e.err == nil {
		t.Fatal("expected engine error for expand-past-max")
	}
}

func TestStartOnDemandGuards(t *testing.T) {
	od := onDemand(1, 0, 90, 100)
	e := attach(t, Config{Nodes: 100}, []*job.Job{od}, Baseline{})
	e.Cluster().AllocFree(99, 50) // someone holds half the machine
	od.State = job.Waiting
	e.StartOnDemand(od) // 50 free < 90: error
	if e.err == nil {
		t.Fatal("expected engine error for underfunded start")
	}
	e.err = nil
	e.StartOnDemand(rigid(2, 0, 10, 100)) // wrong class
	if e.err == nil {
		t.Fatal("expected engine error for class")
	}
}

func TestTryResumeNow(t *testing.T) {
	r := rigid(1, 0, 60, 1000)
	m := malleable(2, 0, 80, 16, 1000)
	e := attach(t, Config{Nodes: 100}, []*job.Job{r, m}, Baseline{})
	r.State, m.State = job.Waiting, job.Waiting
	e.enqueue(r)
	e.enqueue(m)

	// Not enough for the rigid job even with a reservation.
	e.Cluster().Reserve(1, 30)
	e.Cluster().AllocFree(99, 50) // free: 20
	if e.TryResumeNow(r) {
		t.Fatal("resume with 30 own + 20 free for size 60 must fail")
	}
	// Malleable resumes at min size.
	if !e.TryResumeNow(m) {
		t.Fatal("malleable should resume at reduced size")
	}
	if m.CurSize != 20 {
		t.Fatalf("resumed at %d, want 20 (all free)", m.CurSize)
	}
	// Not queued: no resume.
	if e.TryResumeNow(m) {
		t.Fatal("running job cannot resume")
	}
}

func TestScheduleTimerClampsPast(t *testing.T) {
	e := attach(t, Config{Nodes: 10}, nil, Baseline{})
	e.clk = 100
	ev := e.ScheduleTimer(50, "late")
	if ev.Time != 100 {
		t.Fatalf("timer at %d, want clamped to 100", ev.Time)
	}
	e.CancelTimer(ev)
	e.CancelTimer(nil) // nil-safe
}

func TestBreakHoldDeadlock(t *testing.T) {
	// Two waiting jobs whose private holds mutually starve them: the engine
	// must dissolve the holds rather than stall forever.
	a := rigid(1, 0, 80, 100)
	b := rigid(2, 0, 80, 100)
	e := attach(t, Config{Nodes: 100, Validate: true}, []*job.Job{a, b}, &deadlockMech{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.EndTime < 0 || b.EndTime < 0 {
		t.Fatal("jobs did not complete after hold release")
	}
}

// deadlockMech reserves 30 nodes for each job at attach, so neither 80-node
// job can start (100 - 60 held = 40 free each + 30 own = 70 < 80).
type deadlockMech struct{ Baseline }

func (m *deadlockMech) Attach(e *Engine) {
	e.Cluster().Reserve(1, 30)
	e.Cluster().Reserve(2, 30)
}

func TestSquatLifecycle(t *testing.T) {
	e := attach(t, Config{Nodes: 100, BackfillReserved: true}, nil, Baseline{})
	// Claim 50 reserves 40 nodes and allows squatting.
	e.Cluster().Reserve(50, 40)
	e.SetClaimBackfillable(50, true)

	// A backfill job starts on 20 free + 30 squatted nodes.
	sq := rigid(1, 0, 50, 1000)
	if err := e.register(sq); err != nil {
		t.Fatal(err)
	}
	sq.State = job.Waiting
	e.Cluster().AllocFree(99, 40) // free: 20
	e.enqueue(sq)
	e.startJob(sq, 50, true)
	if e.err != nil {
		t.Fatal(e.err)
	}
	if e.SquattedCount(50) != 30 {
		t.Fatalf("squatted %d, want 30", e.SquattedCount(50))
	}
	if e.Cluster().ReservedCount(50) != 10 {
		t.Fatalf("reservation %d, want 10", e.Cluster().ReservedCount(50))
	}

	// Eviction returns the squatted nodes to the claim.
	e.EvictSquatters(50)
	if e.SquattedCount(50) != 0 {
		t.Fatal("squats must clear")
	}
	if e.Cluster().ReservedCount(50) != 40 {
		t.Fatalf("reservation %d, want 40 after eviction", e.Cluster().ReservedCount(50))
	}
	if sq.PreemptCount != 1 || !e.Queued(1) {
		t.Fatal("squatter must be preempted and requeued")
	}
	if err := e.Cluster().CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// Preempted again, the squatter reports as freed only the nodes it took
	// from the free pool: the squatted ones went back to the claim.
	e.startJob(sq, 50, true)
	freed := e.PreemptRigid(sq)
	if freed.Len() != 20 || freed.Intersects(e.Cluster().ReservedSet(50)) {
		t.Fatalf("freed %d nodes (overlapping claim 50: %v), want the 20 free-pool nodes only",
			freed.Len(), freed.Intersects(e.Cluster().ReservedSet(50)))
	}
	if err := e.Cluster().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDropClaimSquats(t *testing.T) {
	e := attach(t, Config{Nodes: 100, BackfillReserved: true}, nil, Baseline{})
	e.Cluster().Reserve(50, 40)
	e.SetClaimBackfillable(50, true)
	sq := rigid(1, 0, 40, 1000)
	if err := e.register(sq); err != nil {
		t.Fatal(err)
	}
	sq.State = job.Waiting
	e.Cluster().AllocFree(99, 60) // free: 0
	e.enqueue(sq)
	e.startJob(sq, 40, true)
	if e.SquattedCount(50) != 40 {
		t.Fatalf("squatted %d", e.SquattedCount(50))
	}
	// Timeout path: claim dissolves, squatter keeps running undisturbed.
	e.DropClaimSquats(50)
	e.SetClaimBackfillable(50, false)
	if e.SquattedCount(50) != 0 {
		t.Fatal("squat records must drop")
	}
	if sq.State != job.Running {
		t.Fatal("squatter must keep running")
	}
	if err := e.Cluster().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEnqueueWaitingIdempotent(t *testing.T) {
	r := rigid(1, 0, 10, 100)
	e := attach(t, Config{Nodes: 100}, []*job.Job{r}, Baseline{})
	r.State = job.Waiting
	e.EnqueueWaiting(r)
	e.EnqueueWaiting(r)
	if e.queue.Len() != 1 {
		t.Fatalf("queue length %d, want 1", e.queue.Len())
	}
}

func TestJobByID(t *testing.T) {
	r := rigid(7, 0, 10, 100)
	e := attach(t, Config{Nodes: 100}, []*job.Job{r}, Baseline{})
	if e.JobByID(7) != r {
		t.Fatal("lookup failed")
	}
	if e.JobByID(8) != nil {
		t.Fatal("unknown ID should be nil")
	}
}

func TestRunningExcludesWarningAndOnDemand(t *testing.T) {
	m := malleable(1, 0, 40, 8, 1000)
	od := onDemand(2, 0, 20, 500)
	e := attach(t, Config{Nodes: 100}, []*job.Job{m, od}, Baseline{})
	m.State, od.State = job.Waiting, job.Waiting
	e.Cluster().AllocFree(1, 40)
	forceRunning(e, m)
	m.StartMalleable(0, 40)
	e.Cluster().AllocFree(2, 20)
	forceRunning(e, od)
	od.Start(0)

	if got := e.Running(); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Running() = %v", got)
	}
	e.PreemptMalleableWithWarning(m, -1)
	if got := e.Running(); len(got) != 0 {
		t.Fatalf("warning job must be excluded, got %v", got)
	}
}

func TestMechanismTimerRoundTrip(t *testing.T) {
	mech := &timerMech{}
	r := rigid(1, 0, 10, 100)
	e := attach(t, Config{Nodes: 100}, []*job.Job{r}, mech)
	mech.e = e
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !mech.fired {
		t.Fatal("timer payload never delivered")
	}
}

type timerMech struct {
	Baseline
	e     *Engine
	fired bool
	armed bool
}

func (m *timerMech) OnJobCompleted(j *job.Job, _ *nodeset.Set) {
	if !m.armed {
		m.armed = true
		m.e.ScheduleTimer(m.e.Now()+10, "ping")
	}
}

func (m *timerMech) OnTimer(p any) {
	if p == "ping" {
		m.fired = true
	}
}

// TestValidateCatchesStaleSchedulerState corrupts each structure checkPass
// rebuilds from scratch and requires the next scheduler pass to fail the
// run, naming its time: an oracle that cannot fail proves nothing.
func TestValidateCatchesStaleSchedulerState(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(e *Engine, b, c *job.Job)
	}{
		{"release list", "release list", func(e *Engine, _, _ *job.Job) { e.rel = nil }},
		{"queued flag", "job 2, which is not flagged queued", func(e *Engine, b, _ *job.Job) { e.mustEnt(b).inQueue = false }},
		{"queue order", "breaks policy order", func(e *Engine, b, c *job.Job) { e.queue.Load([]*job.Job{c, b}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// a runs on 80 of 100 nodes; b and c wait behind it; d's arrival
			// at t=500 triggers the pass that must fail.
			a, b, c, d := rigid(1, 0, 80, 1000), rigid(2, 0, 50, 100), rigid(3, 0, 60, 100), rigid(4, 500, 10, 100)
			e := attach(t, Config{Nodes: 100, Validate: true}, []*job.Job{a, b, c, d}, Baseline{})
			for !e.IsRunningOrWarning(a.ID) || e.QueueDepth() != 2 {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			tc.corrupt(e, b, c)
			_, err := e.Run()
			if err == nil || !strings.Contains(err.Error(), "scheduler pass at t=500") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run error %v, want the pass at t=500 to report %q", err, tc.want)
			}
		})
	}
}
