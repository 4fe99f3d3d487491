package policy

import (
	"testing"

	"hybridsched/internal/job"
)

// Regression tests for the two backfill-accounting fixes. Shared fixture:
// 100 nodes; a running job holds 60 until t=1000; the head needs 80, so
// shadow = 1000 and extra = free(40) + 60 - 80 = 20.

// TestMalleableBackfillUsesReservedHeadroom pins the chooseBackfillSize fix:
// the malleable extra-rule fallback must size against own + extra +
// reservedExtra, not own + extra. With 30 shared reserved nodes a malleable
// candidate (MinSize 25) is feasible at 20+30 = 50 nodes; the pre-fix cap of
// extra(20) < MinSize rejected it outright whenever free > extra.
func TestMalleableBackfillUsesReservedHeadroom(t *testing.T) {
	running := []Running{{EstEnd: 1000, Nodes: 60, ID: 90}}
	head := rigid(1, 0, 80, 500)
	// Long estimate: the time rule fails at every size, forcing the
	// extra-rule fallback.
	cand := malleable(2, 1, 90, 25, 99999)
	starts := PlanEASY(0, []*job.Job{head, cand}, running, 40, 30, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("malleable candidate should backfill on reserved headroom; starts: %+v", starts)
	}
	if got, want := starts[0].Size, 50; got != want {
		t.Fatalf("backfill size = %d, want %d (own 0 + extra 20 + reserved 30)", got, want)
	}
}

// TestBackfillSharedReserveNoDoubleSpend pins the shared-capacity deduction
// fix with two candidates competing for one reserved node: candidate A's
// extra-rule draw of 21 is covered by the head's slack (20) plus the single
// shared reserved node; candidate B must then find the reserve spent, even
// though A's draw physically fit in the free pool (the pre-fix code charged
// the reserve only on free-pool underflow, so B would be sized against the
// same node again and the plan would oversubscribe the head's window).
func TestBackfillSharedReserveNoDoubleSpend(t *testing.T) {
	running := []Running{{EstEnd: 1000, Nodes: 60, ID: 90}}
	head := rigid(1, 0, 80, 500)
	a := rigid(2, 1, 21, 99999) // extra rule: 21 <= extra 20 + reserve 1
	b := rigid(3, 2, 1, 99999)  // must NOT also ride the spent reserve
	starts := PlanEASY(0, []*job.Job{head, a, b}, running, 40, 1, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 {
		t.Fatalf("exactly candidate A should start; starts: %+v", starts)
	}
	// Same shape through the fixed-size path (the double-spend audit of
	// planEASYFixed): identical accounting applies with flexible off.
	startsFixed := PlanEASY(0, []*job.Job{head, a, b}, running, 40, 1, nil, false)
	if len(startsFixed) != 1 || startsFixed[0].J.ID != 2 {
		t.Fatalf("fixed path: exactly candidate A should start; starts: %+v", startsFixed)
	}
}

// TestRigidBackfillReservedHeadroom extends the relaxed extra rule to rigid
// candidates: a draw of extra+reserved is admissible even when it exceeds the
// head's slack alone.
func TestRigidBackfillReservedHeadroom(t *testing.T) {
	running := []Running{{EstEnd: 1000, Nodes: 60, ID: 90}}
	head := rigid(1, 0, 80, 500)
	cand := rigid(2, 1, 24, 99999) // 24 <= extra 20 + reserved 4
	starts := PlanEASY(0, []*job.Job{head, cand}, running, 40, 4, nil, true)
	if len(starts) != 1 || starts[0].J.ID != 2 || starts[0].Size != 24 {
		t.Fatalf("rigid candidate should use reserved headroom; starts: %+v", starts)
	}
	// One node short of the combined bound: rejected.
	cand2 := rigid(3, 1, 25, 99999)
	starts = PlanEASY(0, []*job.Job{head, cand2}, running, 40, 4, nil, true)
	if len(starts) != 0 {
		t.Fatalf("draw beyond extra+reserved must be rejected; starts: %+v", starts)
	}
}

// TestSortedPlannerMatchesUnsorted drives the pre-sorted entry point against
// the sort-per-call one on the regression fixtures, with a planner reused
// across passes as the engine reuses its own.
func TestSortedPlannerMatchesUnsorted(t *testing.T) {
	running := []Running{
		{EstEnd: 1000, Nodes: 30, ID: 90},
		{EstEnd: 1000, Nodes: 30, ID: 91}, // EstEnd tie: ID breaks it
		{EstEnd: 500, Nodes: 10, ID: 92},
	}
	sorted := make([]Running, len(running))
	copy(sorted, running)
	// (EstEnd, ID) order.
	sorted[0], sorted[1], sorted[2] = running[2], running[0], running[1]

	head := rigid(1, 0, 95, 500)
	c1 := malleable(2, 1, 40, 5, 99999)
	c2 := rigid(3, 2, 10, 200)
	queue := []*job.Job{head, c1, c2}
	q := queueOf(FCFS{}, false, true, 0, queue)

	var p Planner
	for pass := 0; pass < 3; pass++ {
		a := PlanEASY(0, queue, running, 30, 2, nil, true)
		b := p.PlanEASYSorted(0, q, sorted, 30, 2, 0, nil)
		if len(a) != len(b) {
			t.Fatalf("pass %d: %d vs %d starts", pass, len(a), len(b))
		}
		for i := range a {
			if a[i].J.ID != b[i].J.ID || a[i].Size != b[i].Size {
				t.Fatalf("pass %d start %d: (%d,%d) vs (%d,%d)",
					pass, i, a[i].J.ID, a[i].Size, b[i].J.ID, b[i].Size)
			}
		}
	}
}
