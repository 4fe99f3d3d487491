package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
)

func rigid(id int, submit int64, size int, est int64) *job.Job {
	j := job.NewRigid(id, 0, submit, size, est, est, 0, checkpoint.Plan{})
	j.State = job.Waiting
	return j
}

func malleable(id int, submit int64, max, min int, est int64) *job.Job {
	j := job.NewMalleable(id, 0, submit, max, min, est, est, 0)
	j.State = job.Waiting
	return j
}

func onDemand(id int, submit int64, size int, est int64) *job.Job {
	j := job.NewOnDemand(id, 0, submit, size, est, est, 0, job.NoNotice, submit, submit)
	j.State = job.Waiting
	return j
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fcfs", "sjf", "ljf", "wfp3", ""} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("unknown policy should be nil")
	}
}

func TestFCFSOrder(t *testing.T) {
	q := []*job.Job{rigid(2, 300, 8, 100), rigid(1, 100, 8, 100), rigid(3, 100, 8, 100)}
	Sort(q, FCFS{}, 0, false)
	if q[0].ID != 1 || q[1].ID != 3 || q[2].ID != 2 {
		t.Fatalf("FCFS order: %d %d %d", q[0].ID, q[1].ID, q[2].ID)
	}
}

func TestSJFOrder(t *testing.T) {
	q := []*job.Job{rigid(1, 0, 8, 900), rigid(2, 0, 8, 100), rigid(3, 0, 8, 500)}
	Sort(q, SJF{}, 0, false)
	if q[0].ID != 2 || q[1].ID != 3 || q[2].ID != 1 {
		t.Fatalf("SJF order wrong: %d %d %d", q[0].ID, q[1].ID, q[2].ID)
	}
}

func TestLJFOrder(t *testing.T) {
	q := []*job.Job{rigid(1, 0, 8, 100), rigid(2, 0, 128, 100), rigid(3, 0, 64, 100)}
	Sort(q, LJF{}, 0, false)
	if q[0].ID != 2 || q[1].ID != 3 || q[2].ID != 1 {
		t.Fatalf("LJF order wrong: %d %d %d", q[0].ID, q[1].ID, q[2].ID)
	}
}

func TestWFP3PrefersLongWaiters(t *testing.T) {
	a := rigid(1, 0, 64, 1000)    // waited 10000
	b := rigid(2, 9000, 64, 1000) // waited 1000
	q := []*job.Job{b, a}
	Sort(q, WFP3{}, 10000, false)
	if q[0].ID != 1 {
		t.Fatal("longer-waiting equal-size job should lead")
	}
}

func TestSortOnDemandFirst(t *testing.T) {
	q := []*job.Job{rigid(1, 0, 8, 100), onDemand(2, 500, 8, 100), onDemand(3, 400, 8, 100)}
	Sort(q, FCFS{}, 1000, true)
	if q[0].ID != 3 || q[1].ID != 2 || q[2].ID != 1 {
		t.Fatalf("on-demand-first order wrong: %d %d %d", q[0].ID, q[1].ID, q[2].ID)
	}
	// Without the flag, FCFS puts the rigid job first.
	Sort(q, FCFS{}, 1000, false)
	if q[0].ID != 1 {
		t.Fatal("plain FCFS should lead with the earliest submit")
	}
}

func TestPlanEASYStartsHeadJobs(t *testing.T) {
	q := []*job.Job{rigid(1, 0, 30, 100), rigid(2, 1, 40, 100), rigid(3, 2, 50, 100)}
	starts := PlanEASY(0, q, nil, 100, 0, nil, true)
	// 30+40 fit; 50 does not (30 left), and nothing can backfill behind it.
	if len(starts) != 2 || starts[0].J.ID != 1 || starts[1].J.ID != 2 {
		t.Fatalf("starts: %+v", starts)
	}
}

func TestPlanEASYBackfillRespectsShadow(t *testing.T) {
	// 100 nodes; a running job holds 60 until t=1000 (estimate).
	running := []Running{{EstEnd: 1000, Nodes: 60}}
	head := rigid(1, 0, 80, 500)  // needs 80: blocked until t=1000
	short := rigid(2, 1, 40, 900) // fits now, ends 900 <= 1000: backfills
	long := rigid(3, 2, 40, 5000) // would end after shadow and exceeds extra
	q := []*job.Job{head, short, long}
	starts := PlanEASY(0, q, running, 40, 0, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("starts: %+v", starts)
	}
	// shadow = 1000, extra = 40+60-80 = 20: a long 20-node job may still
	// backfill on extra nodes.
	tiny := rigid(4, 3, 20, 99999)
	q = []*job.Job{head, tiny}
	starts = PlanEASY(0, q, running, 40, 0, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 4 {
		t.Fatalf("extra-node backfill failed: %+v", starts)
	}
}

func TestPlanEASYBackfillNeverDelaysHead(t *testing.T) {
	// Head needs all 100 nodes at shadow=1000; a 40-node job with a long
	// estimate must NOT start even though it fits now.
	running := []Running{{EstEnd: 1000, Nodes: 60}}
	head := rigid(1, 0, 100, 500)
	greedy := rigid(2, 1, 40, 2000)
	starts := PlanEASY(0, []*job.Job{head, greedy}, running, 40, 0, nil, true)
	if len(starts) != 0 {
		t.Fatalf("greedy backfill would delay head: %+v", starts)
	}
}

func TestPlanEASYMalleableHeadStartsAtMin(t *testing.T) {
	// Head is malleable min=20 max=200; only 50 free: starts at 50.
	head := malleable(1, 0, 200, 20, 1000)
	starts := PlanEASY(0, []*job.Job{head}, nil, 50, 0, nil, true)
	if len(starts) != 1 || starts[0].Size != 50 {
		t.Fatalf("malleable head: %+v", starts)
	}
}

func TestPlanEASYMalleableTakesMaxWhenRoomy(t *testing.T) {
	head := malleable(1, 0, 60, 10, 1000)
	starts := PlanEASY(0, []*job.Job{head}, nil, 100, 0, nil, true)
	if len(starts) != 1 || starts[0].Size != 60 {
		t.Fatalf("malleable should take max size: %+v", starts)
	}
}

func TestPlanEASYMalleableBackfillShrinksToExtra(t *testing.T) {
	// Head rigid needs 80 (shadow 1000, extra 20). Malleable candidate
	// min=10 max=40 with a huge estimate: the time rule fails at any size, so
	// it must shrink to the 20 extra nodes.
	running := []Running{{EstEnd: 1000, Nodes: 60}}
	head := rigid(1, 0, 80, 500)
	m := malleable(2, 1, 40, 10, 99999)
	starts := PlanEASY(0, []*job.Job{head, m}, running, 40, 0, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 || starts[0].Size != 20 {
		t.Fatalf("malleable extra backfill: %+v", starts)
	}
}

func TestPlanEASYBackfillExtraReservedNodes(t *testing.T) {
	// Nothing free, 30 reserved nodes available for backfill only.
	head := rigid(1, 0, 50, 100)
	bf := rigid(2, 1, 30, 100)
	starts := PlanEASY(0, []*job.Job{head, bf}, nil, 0, 30, nil, true)
	// Head must not start on reserved nodes; bf may.
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("reserved backfill: %+v", starts)
	}
}

func TestPlanEASYNoShadowWhenRunningInsufficient(t *testing.T) {
	// Head needs 90 but running jobs only ever release 40: shadow unbounded,
	// any fitting job backfills.
	running := []Running{{EstEnd: 1000, Nodes: 20}}
	head := rigid(1, 0, 90, 100)
	bf := rigid(2, 1, 20, 99999)
	starts := PlanEASY(0, []*job.Job{head, bf}, running, 20, 0, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("unbounded-shadow backfill: %+v", starts)
	}
}

func TestPlanEASYEmptyQueue(t *testing.T) {
	if got := PlanEASY(0, nil, nil, 100, 0, nil, true); len(got) != 0 {
		t.Fatalf("empty queue should plan nothing: %+v", got)
	}
}

// simulateShadow replays a plan to verify the head job is never delayed: at
// the shadow time, the head must be able to start assuming all running jobs
// release exactly at their estimates and backfilled jobs run to their own
// estimates.
func headNotDelayed(now int64, queue []*job.Job, running []Running, free int, starts []Start) bool {
	started := map[int]bool{}
	for _, s := range starts {
		started[s.J.ID] = true
	}
	// Find the head: first queued job not started.
	var head *job.Job
	for _, j := range queue {
		if !started[j.ID] {
			head = j
			break
		}
	}
	if head == nil {
		return true
	}
	shadow, _ := shadowAndExtra(sortedRel(running), freeAfter(free, starts, queue, head), minStart(head))
	if shadow == maxInt64 {
		return true
	}
	// Nodes available to the head at the shadow time: free now − backfills
	// still running at shadow + releases by then.
	avail := free
	for _, s := range starts {
		avail -= s.Size
	}
	for _, r := range running {
		if r.EstEnd <= shadow {
			avail += r.Nodes
		}
	}
	for _, s := range starts {
		if now+estimatedWall(s.J, s.Size) <= shadow {
			avail += s.Size
		}
	}
	return avail >= minStart(head)
}

func freeAfter(free int, starts []Start, queue []*job.Job, head *job.Job) int {
	// Free nodes counted before any backfill decisions: phase-1 starts are
	// those ahead of the head in queue order.
	f := free
	for _, s := range starts {
		ahead := false
		for _, j := range queue {
			if j == head {
				break
			}
			if j == s.J {
				ahead = true
				break
			}
		}
		if ahead {
			f -= s.Size
		}
	}
	return f
}

// Property: EASY backfilling never delays the head job's reservation, for
// random queues and running sets.
func TestPlanEASYHeadNeverDelayedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 100
		// Random running jobs.
		free := total
		var running []Running
		for free > 10 && r.Intn(3) != 0 {
			n := 1 + r.Intn(free/2+1)
			running = append(running, Running{EstEnd: int64(100 + r.Intn(2000)), Nodes: n})
			free -= n
		}
		// Random queue.
		var queue []*job.Job
		nq := 1 + r.Intn(8)
		for i := 0; i < nq; i++ {
			size := 1 + r.Intn(total)
			est := int64(10 + r.Intn(3000))
			if r.Intn(3) == 0 {
				min := 1 + r.Intn(size)
				queue = append(queue, malleable(i+1, int64(i), size, min, est))
			} else {
				queue = append(queue, rigid(i+1, int64(i), size, est))
			}
		}
		starts := PlanEASY(0, queue, running, free, 0, nil, true)
		// All starts must fit in the free pool.
		used := 0
		for _, s := range starts {
			used += s.Size
		}
		if used > free {
			return false
		}
		return headNotDelayed(0, queue, running, free, starts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: started sizes always respect job bounds.
func TestPlanEASYSizesWithinBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var queue []*job.Job
		for i := 0; i < 1+r.Intn(10); i++ {
			size := 1 + r.Intn(128)
			min := 1 + r.Intn(size)
			queue = append(queue, malleable(i+1, int64(i), size, min, int64(10+r.Intn(1000))))
		}
		free := r.Intn(300)
		extra := r.Intn(100)
		for _, s := range PlanEASY(0, queue, nil, free, extra, nil, true) {
			if s.Size < s.J.MinSize || s.Size > s.J.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanEASYOwnReservation(t *testing.T) {
	// Head needs 50 but only 20 are free; it privately holds 30 returned
	// nodes, so it must start (consuming own first).
	head := rigid(1, 0, 50, 100)
	ownRes := func(j *job.Job) int {
		if j.ID == 1 {
			return 30
		}
		return 0
	}
	starts := PlanEASY(0, []*job.Job{head}, nil, 20, 0, ownRes, true)
	if len(starts) != 1 || starts[0].J.ID != 1 {
		t.Fatalf("own-reservation start failed: %+v", starts)
	}
}

func TestPlanEASYOwnReservationReducesHeadNeed(t *testing.T) {
	// Head needs 80, holds 50 privately, 10 free: needs 30 more, covered by
	// the 30-node release at t=1000 => shadow 1000, extra = 10+30-30 = 10.
	running := []Running{{EstEnd: 1000, Nodes: 30}}
	head := rigid(1, 0, 80, 100)
	tooBig := rigid(3, 2, 11, 99999)
	bf := rigid(2, 3, 10, 99999) // long job exactly on the extra nodes
	ownRes := func(j *job.Job) int {
		if j.ID == 1 {
			return 50
		}
		return 0
	}
	starts := PlanEASY(0, []*job.Job{head, tooBig, bf}, running, 10, 0, ownRes, true)
	// tooBig's free draw (11) exceeds extra (10); bf's (10) fits exactly.
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("extra with own reservation: %+v", starts)
	}
}

func TestPlanEASYBackfillerUsesItsOwnReservation(t *testing.T) {
	// Backfiller holds 25 privately and needs 30: only 5 from the free pool,
	// within the head's extra slack of 5.
	running := []Running{{EstEnd: 1000, Nodes: 60}}
	head := rigid(1, 0, 95, 100) // shadow 1000, extra = 40+60-95 = 5
	bf := rigid(2, 1, 30, 99999)
	ownRes := func(j *job.Job) int {
		if j.ID == 2 {
			return 25
		}
		return 0
	}
	starts := PlanEASY(0, []*job.Job{head, bf}, running, 40, 0, ownRes, true)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("own-reservation backfill: %+v", starts)
	}
	// Without the private hold the same job must be rejected.
	starts = PlanEASY(0, []*job.Job{head, bf}, running, 40, 0, nil, true)
	if len(starts) != 0 {
		t.Fatalf("backfill without hold should fail: %+v", starts)
	}
}

func TestPlanEASYFixedTreatsMalleableRigidly(t *testing.T) {
	// flexible=false: a malleable job needs its full max size to start.
	m := malleable(1, 0, 80, 20, 1000)
	starts := PlanEASY(0, []*job.Job{m}, nil, 50, 0, nil, false)
	if len(starts) != 0 {
		t.Fatalf("fixed planner started malleable shrunk: %+v", starts)
	}
	starts = PlanEASY(0, []*job.Job{m}, nil, 80, 0, nil, false)
	if len(starts) != 1 || starts[0].Size != 80 {
		t.Fatalf("fixed planner: %+v", starts)
	}
}

func TestPlanEASYFixedBackfillRules(t *testing.T) {
	// Head blocked (needs 80, shadow at 1000); a short job backfills, a long
	// one is rejected, and a long job within the extra slack passes.
	running := []Running{{EstEnd: 1000, Nodes: 60}}
	head := rigid(1, 0, 80, 500)
	short := rigid(2, 1, 40, 900)
	long := rigid(3, 2, 40, 5000)
	starts := PlanEASY(0, []*job.Job{head, short, long}, running, 40, 0, nil, false)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("fixed backfill: %+v", starts)
	}
	// extra = 40+60-80 = 20: a 20-node long job fits the extra rule.
	tiny := rigid(4, 3, 20, 99999)
	starts = PlanEASY(0, []*job.Job{head, tiny}, running, 40, 0, nil, false)
	if len(starts) != 1 || starts[0].J.ID != 4 {
		t.Fatalf("fixed extra-rule backfill: %+v", starts)
	}
}

func TestPlanEASYFixedOwnReservation(t *testing.T) {
	head := rigid(1, 0, 50, 100)
	ownRes := func(j *job.Job) int {
		if j.ID == 1 {
			return 30
		}
		return 0
	}
	starts := PlanEASY(0, []*job.Job{head}, nil, 20, 0, ownRes, false)
	if len(starts) != 1 {
		t.Fatalf("fixed own-reservation start: %+v", starts)
	}
}

func TestPlanEASYFixedOnDemandNoSharedReserve(t *testing.T) {
	// An on-demand backfill candidate must not draw on shared reserved
	// capacity (it would become preemptable).
	head := rigid(1, 0, 80, 100)
	od := onDemand(2, 1, 30, 100)
	rig := rigid(3, 2, 30, 100)
	starts := PlanEASY(0, []*job.Job{head, od, rig}, nil, 0, 30, nil, false)
	if len(starts) != 1 || starts[0].J.ID != 3 {
		t.Fatalf("fixed reserved backfill: %+v", starts)
	}
}

func TestPlanEASYFixedMalleableBackfillEstimate(t *testing.T) {
	// Malleable candidate at full size whose estimated end beats the shadow.
	running := []Running{{EstEnd: 10_000, Nodes: 60}}
	head := rigid(1, 0, 80, 500)
	m := malleable(2, 1, 40, 10, 1000) // wall at 40 nodes = 1000 < 10000
	starts := PlanEASY(0, []*job.Job{head, m}, running, 40, 0, nil, false)
	if len(starts) != 1 || starts[0].J.ID != 2 || starts[0].Size != 40 {
		t.Fatalf("fixed malleable backfill: %+v", starts)
	}
}
