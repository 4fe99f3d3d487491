package core

import (
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
)

func rigid(id int, submit int64, size int, work int64) *job.Job {
	return job.NewRigid(id, 0, submit, size, work, work, 0, checkpoint.Plan{})
}

func rigidCkpt(id int, submit int64, size int, work, est, setup int64, plan checkpoint.Plan) *job.Job {
	return job.NewRigid(id, 0, submit, size, work, est, setup, plan)
}

func malleable(id int, submit int64, max, min int, work int64) *job.Job {
	return job.NewMalleable(id, 0, submit, max, min, work, work, 0)
}

func odNoNotice(id int, submit int64, size int, work int64) *job.Job {
	return job.NewOnDemand(id, 0, submit, size, work, work, 0, job.NoNotice, submit, submit)
}

func odNotice(id int, notice, estArrival, actual int64, size int, work int64, cat job.NoticeCategory) *job.Job {
	return job.NewOnDemand(id, 0, actual, size, work, work, 0, cat, notice, estArrival)
}

func runMech(t *testing.T, name string, nodes int, jobs []*job.Job) *sim.Engine {
	t.Helper()
	m, err := ByName(name, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Nodes: nodes, Validate: true}, jobs, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestByNameAllSix(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("round trip: %q != %q", m.Name(), name)
		}
	}
	if _, err := ByName("X&Y", Config{}); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestNPAAPreemptsRigidInstantly(t *testing.T) {
	victim := rigid(1, 0, 80, 5000)
	od := odNoNotice(2, 1000, 80, 500)
	runMech(t, "N&PAA", 100, []*job.Job{victim, od})
	if od.StartTime != 1000 {
		t.Fatalf("od start %d, want 1000", od.StartTime)
	}
	if victim.PreemptCount != 1 {
		t.Fatal("victim not preempted")
	}
	// Directed return: the victim resumes right when the od job completes.
	if victim.StartTime != 0 || victim.EndTime != 1500+5000 {
		t.Fatalf("victim end %d, want 6500", victim.EndTime)
	}
}

func TestNPAAPrefersCheapVictims(t *testing.T) {
	// Two candidates: a malleable job (overhead = setup 0) and a rigid job
	// without checkpoints (overhead = unsaved work, large). PAA must preempt
	// the malleable one.
	mall := malleable(1, 0, 50, 10, 5000)
	rig := rigid(2, 0, 50, 5000)
	od := odNoNotice(3, 1000, 40, 500)
	runMech(t, "N&PAA", 100, []*job.Job{mall, rig, od})
	if mall.PreemptCount != 1 {
		t.Fatal("malleable (cheap) candidate should be preempted")
	}
	if rig.PreemptCount != 0 {
		t.Fatal("rigid (expensive) candidate should be spared")
	}
	// Malleable preemption: od starts at warning expiry.
	if od.StartTime != 1000+job.WarningPeriod {
		t.Fatalf("od start %d", od.StartTime)
	}
}

// TestClaimStartsWhenGatherReachesSize: an on-demand job holding a pending
// start starts the instant a victim's nodes bring its reservation exactly to
// its size, even while another victim's warning is still in flight. PAA
// warns both malleable jobs for the 40-node claim (10 then 50 nodes); the
// larger one completes inside its warning, and its nodes cover the claim at
// t=1050, before the smaller one's warning expires at t=1120.
func TestClaimStartsWhenGatherReachesSize(t *testing.T) {
	small := malleable(1, 0, 10, 5, 5000)
	large := malleable(2, 0, 50, 10, 1050)
	rig := rigid(3, 0, 40, 5000)
	od := odNoNotice(4, 1000, 40, 500)
	m, err := ByName("N&PAA", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Nodes: 100, Validate: true}, []*job.Job{small, large, rig, od}, m)
	if err != nil {
		t.Fatal(err)
	}
	for more := true; more; {
		if more, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.Queued(od.ID) {
			t.Fatalf("t=%d: the on-demand job entered the waiting queue", e.Now())
		}
	}
	if small.PreemptCount != 1 || large.EndTime != 1050 || od.StartTime != 1050 {
		t.Fatalf("small victim preempted %d times, large victim ended at %d, on-demand start %d; want 1, 1050, 1050",
			small.PreemptCount, large.EndTime, od.StartTime)
	}
}

func TestNPAAInsufficientGoesToQueueFront(t *testing.T) {
	// Two on-demand jobs cover the system; a third cannot preempt them
	// (on-demand jobs are never preempted) and must wait in front.
	odA := odNoNotice(1, 0, 60, 2000)
	odB := odNoNotice(2, 10, 40, 3000)
	odC := odNoNotice(3, 100, 50, 500)
	late := rigid(4, 50, 10, 10_000) // FCFS-earlier than odC but must not pass it
	e := runMech(t, "N&PAA", 100, []*job.Job{odA, odB, odC, late})
	_ = e
	if odC.StartTime != 2000 {
		t.Fatalf("odC start %d, want 2000 (when odA ends)", odC.StartTime)
	}
	if late.StartTime < 2000 {
		t.Fatalf("rigid job %d overtook a queued on-demand job", late.StartTime)
	}
}

func TestNSPAAShrinksEvenly(t *testing.T) {
	// Two malleable jobs at 40 each (min 8); od needs 40 -> both shrink to 20.
	m1 := malleable(1, 0, 40, 8, 4000)
	m2 := malleable(2, 0, 40, 8, 4000)
	od := odNoNotice(3, 1000, 40, 500)
	runMech(t, "N&SPAA", 80, []*job.Job{m1, m2, od})
	if od.StartTime != 1000 {
		t.Fatalf("od start %d, want instant", od.StartTime)
	}
	if m1.ShrinkCount != 1 || m2.ShrinkCount != 1 {
		t.Fatalf("shrink counts %d %d", m1.ShrinkCount, m2.ShrinkCount)
	}
	if m1.PreemptCount != 0 || m2.PreemptCount != 0 {
		t.Fatal("shrink must not preempt")
	}
}

func TestNSPAAExpandsBackAfterCompletion(t *testing.T) {
	m := malleable(1, 0, 100, 20, 10_000)
	od := odNoNotice(2, 1000, 80, 500)
	runMech(t, "N&SPAA", 100, []*job.Job{m, od})
	// Work conservation with expansion back at t=1500:
	// 0..1000 @100 (100k), 1000..1500 @20 (10k), rest @100.
	wantEnd := int64(1500) + (10_000*100-110_000+99)/100
	if m.EndTime != wantEnd {
		t.Fatalf("malleable end %d, want %d (expansion failed?)", m.EndTime, wantEnd)
	}
}

func TestNSPAAFallsBackToPAA(t *testing.T) {
	// Malleable supply (30-6=24) cannot cover the od request of 80; SPAA
	// must fall back to preempting whole jobs (malleable first: cheapest).
	mall := malleable(1, 0, 30, 6, 5000)
	rig := rigid(2, 0, 70, 5000)
	od := odNoNotice(3, 1000, 80, 500)
	runMech(t, "N&SPAA", 100, []*job.Job{mall, rig, od})
	if mall.ShrinkCount != 0 {
		t.Fatal("fallback must not shrink")
	}
	if mall.PreemptCount != 1 {
		t.Fatal("malleable should be preempted under PAA fallback")
	}
	if rig.PreemptCount != 1 {
		t.Fatal("rigid must also be preempted to cover 80 nodes")
	}
}

func TestCUACollectsReleasedNodes(t *testing.T) {
	// A 50-node job ends at t=1000, between the notice (t=700) and the
	// arrival (t=2500). CUA must reserve those nodes, so a later rigid
	// arrival cannot steal them, and the od job starts instantly.
	filler := rigid(1, 0, 80, 1000)
	thief := rigid(2, 1200, 60, 4000)
	od := odNotice(3, 700, 2400, 2500, 60, 600, job.ArriveLate)
	e := runMech(t, "CUA&PAA", 100, []*job.Job{filler, thief, od})
	_ = e
	if od.StartTime != 2500 {
		t.Fatalf("od start %d, want instant 2500", od.StartTime)
	}
	// The thief must wait for the od job (not enough nodes while 60 are
	// reserved): it can only run after od completes.
	if thief.StartTime < 3100 {
		t.Fatalf("thief started %d, stole reserved nodes", thief.StartTime)
	}
	if filler.PreemptCount+thief.PreemptCount+od.PreemptCount != 0 {
		t.Fatal("nothing should be preempted")
	}
}

func TestCUAReleaseTimeoutFreesNodes(t *testing.T) {
	// Notice at t=0 reserves 60 free nodes, estimated arrival t=1800, but
	// the job arrives very late (t=100000). Reservation must dissolve at
	// 1800+600, letting the queued rigid job run.
	od := odNotice(1, 0, 1800, 100_000, 60, 300, job.ArriveLate)
	waiting := rigid(2, 100, 80, 1000)
	runMech(t, "CUA&PAA", 100, []*job.Job{od, waiting})
	if waiting.StartTime != 1800+10*simtime.Minute {
		t.Fatalf("waiting start %d, want release at %d", waiting.StartTime, 1800+10*simtime.Minute)
	}
	// The od job still gets served at its actual arrival (via preemption).
	if od.StartTime != 100_000 {
		t.Fatalf("od start %d", od.StartTime)
	}
}

func TestCUACompetitionEarliestNoticeWins(t *testing.T) {
	// Two on-demand jobs with notices at t=100 and t=200 compete for the 50
	// nodes released at t=1000. The earlier notice collects them.
	filler := rigid(1, 0, 100, 1000)
	odA := odNotice(2, 100, 1900, 2000, 50, 500, job.AccurateNotice)
	odB := odNotice(3, 200, 1900, 2000, 50, 8000, job.AccurateNotice)
	runMech(t, "CUA&PAA", 100, []*job.Job{filler, odA, odB})
	if odA.StartTime != 2000 {
		t.Fatalf("odA start %d, want 2000", odA.StartTime)
	}
	// odB also starts instantly: at arrival the other 50 nodes are free
	// (filler ended at 1000). Its gather came from the free pool at arrival.
	if odB.StartTime != 2000 {
		t.Fatalf("odB start %d", odB.StartTime)
	}
}

func TestCUPPreemptsRigidAfterCheckpoint(t *testing.T) {
	// Rigid job with checkpoints every 1000s work (overhead 50, setup 0).
	// Checkpoint completions at 1050, 2100, 3150... Notice t=1500 with
	// estimated arrival 3000: CUP should preempt right after the t=2100
	// checkpoint, losing nothing.
	plan := checkpoint.Plan{Interval: 1000, Overhead: 50}
	victim := rigidCkpt(1, 0, 100, 10_000, 10_000, 0, plan)
	od := odNotice(2, 1500, 3000, 3000, 100, 500, job.AccurateNotice)
	runMech(t, "CUP&PAA", 100, []*job.Job{victim, od})
	if victim.PreemptCount != 1 {
		t.Fatal("victim not preempted")
	}
	if od.StartTime != 3000 {
		t.Fatalf("od start %d, want instant 3000", od.StartTime)
	}
	// Preempted at t=2100, right after the second checkpoint completed:
	// nothing past the checkpoint had accumulated, so zero computation lost.
	if victim.Acct.Lost != 0 {
		t.Fatalf("lost %d node-seconds, want 0 (preempt right after checkpoint)", victim.Acct.Lost)
	}
	// Resume at od completion (3500) with 8000s work left and 7 remaining
	// checkpoints (marks 3000..9000): end = 3500 + 8000 + 7*50.
	if victim.EndTime != 3500+8000+350 {
		t.Fatalf("victim end %d, want %d", victim.EndTime, 3500+8000+350)
	}
}

func TestCUPEarlyArrivalFallsThroughToArrivalStrategy(t *testing.T) {
	// CUP plans a malleable preemption at estArrival-120=2880, but the od
	// job arrives at 2000 before the plan fires. The arrival strategy
	// (SPAA) must handle it by shrinking instead.
	m := malleable(1, 0, 100, 20, 10_000)
	od := odNotice(2, 1500, 3000, 2000, 60, 500, job.ArriveEarly)
	runMech(t, "CUP&SPAA", 100, []*job.Job{m, od})
	if od.StartTime != 2000 {
		t.Fatalf("od start %d, want instant 2000", od.StartTime)
	}
	if m.PreemptCount != 0 {
		t.Fatal("planned preemption should have been cancelled")
	}
	if m.ShrinkCount != 1 {
		t.Fatal("SPAA should shrink at early arrival")
	}
}

func TestCUPCountsExpectedReleases(t *testing.T) {
	// A job estimated to end before the predicted arrival must NOT be
	// preempted: CUP counts it as an expected release.
	endingSoon := rigid(1, 0, 60, 1000) // ends 1000 <= estArrival 2000
	od := odNotice(2, 500, 2000, 2000, 60, 300, job.AccurateNotice)
	runMech(t, "CUP&PAA", 100, []*job.Job{endingSoon, od})
	if endingSoon.PreemptCount != 0 {
		t.Fatal("expected-release job must not be preempted")
	}
	if od.StartTime != 2000 {
		t.Fatalf("od start %d", od.StartTime)
	}
}

func TestDirectedReturnResumesLender(t *testing.T) {
	// Lender preempted for an od job; another rigid job arrives meanwhile.
	// At od completion the lender holds a private reservation and resumes
	// immediately, ahead of the (smaller-demand) competitor it would
	// otherwise lose nodes to.
	lender := rigid(1, 0, 80, 5000)
	od := odNoNotice(2, 1000, 80, 1000)
	compet := rigid(3, 1100, 80, 400)
	runMech(t, "N&PAA", 100, []*job.Job{lender, od, compet})
	// od runs 1000..2000; lender resumes at 2000 with its returned nodes.
	if lender.StartTime != 0 || lender.PreemptCount != 1 {
		t.Fatal("lender lifecycle wrong")
	}
	if od.StartTime != 1000 {
		t.Fatalf("od start %d", od.StartTime)
	}
	// FCFS puts the lender (submit 0) ahead of the competitor (1100) anyway;
	// the directed return guarantees its nodes are not poached.
	wantResume := int64(2000)
	results := lender.EndTime - 5000 // lender end minus full rerun
	if results != wantResume {
		t.Fatalf("lender resumed at %d, want %d", results, wantResume)
	}
}

func TestOnDemandJobsNeverPreempted(t *testing.T) {
	odA := odNoNotice(1, 0, 100, 3000)
	odB := odNoNotice(2, 500, 50, 500)
	runMech(t, "N&PAA", 100, []*job.Job{odA, odB})
	if odA.PreemptCount != 0 {
		t.Fatal("on-demand job was preempted")
	}
	// odB waits for odA (cannot preempt it).
	if odB.StartTime != 3000 {
		t.Fatalf("odB start %d, want 3000", odB.StartTime)
	}
}

func TestMechanismNames(t *testing.T) {
	m := New(NoticeCUP, ArrivalSPAA, Config{})
	if m.Name() != "CUP&SPAA" {
		t.Fatalf("name %q", m.Name())
	}
	if !m.QueueOnDemandFirst() {
		t.Fatal("mechanisms must prioritize on-demand jobs in queue")
	}
	if NoticeKind(9).String() == "" || ArrivalKind(9).String() == "" {
		t.Fatal("unknown kinds should still render")
	}
}
