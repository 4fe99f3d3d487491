package job

import (
	"testing"

	"hybridsched/internal/checkpoint"
)

func TestClassStateNoticeStrings(t *testing.T) {
	if Rigid.String() != "rigid" || OnDemand.String() != "on-demand" || Malleable.String() != "malleable" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still render")
	}
	if Waiting.String() != "waiting" || Running.String() != "running" || Completed.String() != "completed" {
		t.Fatal("state strings wrong")
	}
	if NoNotice.String() != "no-notice" || ArriveLate.String() != "late" {
		t.Fatal("notice strings wrong")
	}
}

func TestNewRigidDefaults(t *testing.T) {
	j := NewRigid(1, 7, 100, 64, 3600, 7200, 180, checkpoint.Plan{})
	if j.Class != Rigid || j.Size != 64 || j.MinSize != 64 {
		t.Fatalf("bad rigid job %+v", j)
	}
	if j.State != Future || j.StartTime != -1 || j.EndTime != -1 {
		t.Fatal("fresh job state wrong")
	}
}

func TestNewJobClampsEstimate(t *testing.T) {
	j := NewRigid(1, 0, 0, 8, 1000, 500, 0, checkpoint.Plan{})
	if j.Estimate != 1000 {
		t.Fatalf("estimate %d must be clamped to work", j.Estimate)
	}
	j2 := NewRigid(2, 0, 0, 8, 0, 0, -5, checkpoint.Plan{})
	if j2.Work != 1 || j2.SetupTime != 0 {
		t.Fatalf("work/setup not clamped: %+v", j2)
	}
}

func TestNewJobPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRigid(1, 0, 0, 0, 100, 100, 0, checkpoint.Plan{})
}

func TestNewMalleablePanicsOnBadMin(t *testing.T) {
	for _, min := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for min=%d", min)
				}
			}()
			NewMalleable(1, 0, 0, 64, min, 100, 100, 0)
		}()
	}
}

func TestRigidWallNoCheckpoints(t *testing.T) {
	// saved=0, total=1000, setup=50, no checkpointing.
	if got := rigidWall(0, 1000, 50, 0, 0); got != 1050 {
		t.Fatalf("wall = %d, want 1050", got)
	}
}

func TestRigidWallWithCheckpoints(t *testing.T) {
	// total=1000, tau=300 -> marks at 300,600,900 (3 checkpoints), delta=10.
	if got := rigidWall(0, 1000, 50, 300, 10); got != 1050+30 {
		t.Fatalf("wall = %d, want 1080", got)
	}
	// A mark exactly at total must be skipped: total=900 -> marks 300,600.
	if got := rigidWall(0, 900, 50, 300, 10); got != 950+20 {
		t.Fatalf("wall = %d, want 970", got)
	}
	// Resuming from saved=300: marks at 600,900 remain for total=1000.
	if got := rigidWall(300, 1000, 50, 300, 10); got != 50+700+20 {
		t.Fatalf("wall = %d, want 770", got)
	}
}

func TestRigidProgressPhases(t *testing.T) {
	// setup=50, tau=300, delta=10, total=1000.
	type tc struct {
		elapsed       int64
		pos, retained int64
		ckpts         int
	}
	cases := []tc{
		{0, 0, 0, 0},
		{30, 0, 0, 0},      // still in setup
		{50, 0, 0, 0},      // setup just done
		{150, 100, 0, 0},   // 100s of work, unsaved
		{350, 300, 0, 0},   // reached mark, checkpoint in flight
		{355, 300, 0, 0},   // mid-checkpoint: retained still 0
		{360, 300, 300, 1}, // checkpoint complete
		{660, 600, 300, 1}, // at second mark
		{670, 600, 600, 2},
		{1080, 1000, 1000, 2}, // completed (no mark at 900? 900<1000 so yes mark)...
	}
	// Recompute the last case: marks at 300,600,900. Completion wall =
	// 50+1000+3*10 = 1080, and retained at completion is total.
	for _, c := range cases[:9] {
		pos, ret, ck := rigidProgress(0, 1000, 50, 300, 10, c.elapsed)
		if pos != c.pos || ret != c.retained || ck != c.ckpts {
			t.Errorf("elapsed %d: got (%d,%d,%d), want (%d,%d,%d)",
				c.elapsed, pos, ret, ck, c.pos, c.retained, c.ckpts)
		}
	}
	pos, ret, ck := rigidProgress(0, 1000, 50, 300, 10, 1080)
	if pos != 1000 || ret != 1000 || ck != 3 {
		t.Errorf("completion: got (%d,%d,%d), want (1000,1000,3)", pos, ret, ck)
	}
}

func TestRigidProgressConsistentWithWall(t *testing.T) {
	// At elapsed = wall, progress must equal total with retained = total.
	for _, saved := range []int64{0, 300, 500} {
		for _, tau := range []int64{0, 250, 300, 999, 5000} {
			wall := rigidWall(saved, 1000, 40, tau, 15)
			pos, ret, _ := rigidProgress(saved, 1000, 40, tau, 15, wall)
			if pos != 1000 || ret != 1000 {
				t.Errorf("saved=%d tau=%d: pos=%d ret=%d at wall", saved, tau, pos, ret)
			}
		}
	}
}

func TestStartAndCompleteRigid(t *testing.T) {
	plan := checkpoint.Plan{Interval: 300, Overhead: 10}
	j := NewRigid(1, 0, 100, 64, 1000, 1500, 50, plan)
	j.State = Waiting
	wall := j.Start(200)
	if wall != 1080 {
		t.Fatalf("wall = %d, want 1080", wall)
	}
	if j.State != Running || j.CurSize != 64 || j.StartTime != 200 {
		t.Fatalf("running state wrong: %+v", j)
	}
	if j.ActualEnd() != 200+1080 {
		t.Fatalf("actual end %d", j.ActualEnd())
	}
	// Estimated wall uses the 1500s estimate: marks at 300..1200 => 4 ckpts.
	if j.EstimatedEnd() != 200+50+1500+4*10 {
		t.Fatalf("estimated end %d", j.EstimatedEnd())
	}
	u := j.FinalizeCompletion(200 + 1080)
	if j.State != Completed || j.EndTime != 1280 {
		t.Fatal("not completed")
	}
	if u.Useful != 1000*64 || u.Setup != 50*64 || u.Ckpt != 3*10*64 || u.Lost != 0 {
		t.Fatalf("usage %+v", u)
	}
	if u.Total() != 1080*64 {
		t.Fatalf("usage total %d != elapsed*nodes %d", u.Total(), 1080*64)
	}
	if j.Turnaround() != 1280-100 {
		t.Fatalf("turnaround %d", j.Turnaround())
	}
	if j.StartDelay() != 100 {
		t.Fatalf("start delay %d", j.StartDelay())
	}
}

func TestPreemptRigidLosesUnsavedWork(t *testing.T) {
	plan := checkpoint.Plan{Interval: 300, Overhead: 10}
	j := NewRigid(1, 0, 0, 10, 1000, 1000, 50, plan)
	j.State = Waiting
	j.Start(0)
	// Preempt at t=500: setup 50 + 450 work => pos=450... mark at 300 done at
	// 50+300+10=360. pos at 500: 300 + (500-360) = 440. retained=300.
	u := j.FinalizePreempt(500)
	if j.State != Waiting || j.PreemptCount != 1 {
		t.Fatal("preempt state wrong")
	}
	if j.SavedWork() != 300 {
		t.Fatalf("saved %d, want 300", j.SavedWork())
	}
	if u.Useful != 300*10 || u.Setup != 50*10 || u.Ckpt != 10*10 {
		t.Fatalf("usage %+v", u)
	}
	if u.Lost != (500-300-50-10)*10 {
		t.Fatalf("lost %d", u.Lost)
	}
	if u.Total() != 500*10 {
		t.Fatalf("usage doesn't cover elapsed: %+v", u)
	}

	// Resume: remaining work 700, marks at 600, 900 => 2 ckpts.
	wall := j.Start(1000)
	if wall != 50+700+20 {
		t.Fatalf("resume wall %d", wall)
	}
	u2 := j.FinalizeCompletion(1000 + wall)
	if u2.Useful != 700*10 || u2.Lost != 0 {
		t.Fatalf("resume usage %+v", u2)
	}
	// Lifetime ledger adds up.
	if j.Acct.Useful != 1000*10 {
		t.Fatalf("lifetime useful %d", j.Acct.Useful)
	}
}

func TestPreemptDuringSetupChargesLost(t *testing.T) {
	j := NewRigid(1, 0, 0, 10, 1000, 1000, 100, checkpoint.Plan{})
	j.State = Waiting
	j.Start(0)
	u := j.FinalizePreempt(60) // still in setup
	if u.Useful != 0 || u.Setup != 0 || u.Ckpt != 0 {
		t.Fatalf("usage %+v", u)
	}
	if u.Lost != 60*10 {
		t.Fatalf("lost %d, want 600", u.Lost)
	}
}

func TestPreemptWithoutCheckpointsLosesEverything(t *testing.T) {
	j := NewRigid(1, 0, 0, 10, 1000, 1000, 50, checkpoint.Plan{})
	j.State = Waiting
	j.Start(0)
	u := j.FinalizePreempt(800)
	if u.Useful != 0 || u.Lost != 800*10 {
		t.Fatalf("usage %+v", u)
	}
	if j.SavedWork() != 0 {
		t.Fatal("nothing should be saved")
	}
}

func TestPreemptionOverhead(t *testing.T) {
	plan := checkpoint.Plan{Interval: 300, Overhead: 10}
	j := NewRigid(1, 0, 0, 10, 1000, 1000, 50, plan)
	j.State = Waiting
	j.Start(0)
	// At t=500 (pos 440, retained 300): overhead = 50 + 140.
	if got := j.PreemptionOverhead(500); got != 190 {
		t.Fatalf("overhead %d, want 190", got)
	}
	// Right after the first checkpoint completes (t=360): overhead = setup.
	if got := j.PreemptionOverhead(360); got != 50 {
		t.Fatalf("overhead at checkpoint %d, want 50", got)
	}
}

func TestNextCheckpointCompletion(t *testing.T) {
	plan := checkpoint.Plan{Interval: 300, Overhead: 10}
	j := NewRigid(1, 0, 0, 10, 1000, 1000, 50, plan)
	j.State = Waiting
	j.Start(100) // ckpt completions at 100+360=460, 770, 1080
	if ct, ok := j.NextCheckpointCompletion(100); !ok || ct != 460 {
		t.Fatalf("first ckpt %d %v", ct, ok)
	}
	if ct, ok := j.NextCheckpointCompletion(460); !ok || ct != 770 {
		t.Fatalf("second ckpt %d %v (boundary must be strictly after)", ct, ok)
	}
	if ct, ok := j.NextCheckpointCompletion(1080); ok {
		t.Fatalf("no ckpt after the last mark, got %d", ct)
	}
	// No checkpointing plan.
	j2 := NewRigid(2, 0, 0, 10, 1000, 1000, 50, checkpoint.Plan{})
	j2.State = Waiting
	j2.Start(0)
	if _, ok := j2.NextCheckpointCompletion(0); ok {
		t.Fatal("plan disabled: no checkpoints")
	}
}

func TestMalleableLifecycle(t *testing.T) {
	// max 100 nodes, min 20, work 1000s @100 nodes => 100_000 node-sec.
	j := NewMalleable(1, 0, 50, 100, 20, 1000, 1200, 30)
	j.State = Waiting
	end := j.StartMalleable(100, 100)
	if end != 100+30+1000 {
		t.Fatalf("end %d, want 1130", end)
	}
	if j.RemainingWork() != 100_000 {
		t.Fatal("no work should be consumed yet")
	}
	// Estimated end uses 1200s estimate.
	if got := j.MalleableEstimatedEnd(100); got != 100+30+1200 {
		t.Fatalf("estimated end %d", got)
	}
	u := j.FinalizeMalleableCompletion(1130)
	if u.Useful != 100_000 || u.Setup != 30*100 || u.Lost != 0 {
		t.Fatalf("usage %+v", u)
	}
	if j.State != Completed || j.EndTime != 1130 {
		t.Fatal("not completed")
	}
}

func TestMalleableShrinkExpandConservesWork(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 0)
	j.State = Waiting
	j.StartMalleable(0, 100)
	// Run 400s at 100 nodes: 40k consumed, 60k left.
	end := j.Resize(400, 50)
	if j.RemainingWork() != 60_000 {
		t.Fatalf("remaining %d, want 60000", j.RemainingWork())
	}
	if end != 400+60_000/50 {
		t.Fatalf("end after shrink %d, want 1600", end)
	}
	if j.ShrinkCount != 1 {
		t.Fatal("shrink not counted")
	}
	// 200s at 50 nodes: 10k consumed, 50k left; expand back to 100.
	end = j.Resize(600, 100)
	if j.RemainingWork() != 50_000 {
		t.Fatalf("remaining %d, want 50000", j.RemainingWork())
	}
	if end != 600+500 {
		t.Fatalf("end after expand %d, want 1100", end)
	}
	if j.ShrinkCount != 1 {
		t.Fatal("expand must not count as shrink")
	}
	u := j.FinalizeMalleableCompletion(1100)
	if u.Useful != 100_000 {
		t.Fatalf("useful %d, want all work", u.Useful)
	}
}

func TestMalleableResizeDuringSetup(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 60)
	j.State = Waiting
	j.StartMalleable(0, 100)
	end := j.Resize(30, 50) // still in setup; no work consumed
	if j.RemainingWork() != 100_000 {
		t.Fatal("work consumed during setup")
	}
	if end != 60+100_000/50 {
		t.Fatalf("end %d, want 2060", end)
	}
}

func TestMalleableWarningPreemption(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 40)
	j.State = Waiting
	j.StartMalleable(0, 100)
	j.BeginWarning(500) // worked 460s: 46k consumed
	if j.State != Warning {
		t.Fatal("not in warning")
	}
	// Job keeps computing during the warning window.
	u := j.FinalizeWarning(500 + WarningPeriod)
	if j.State != Waiting || j.PreemptCount != 1 {
		t.Fatal("warning finalize state wrong")
	}
	wantUseful := int64(460+WarningPeriod) * 100
	if u.Useful != wantUseful {
		t.Fatalf("useful %d, want %d", u.Useful, wantUseful)
	}
	if u.Setup != 40*100 || u.Lost != 0 {
		t.Fatalf("usage %+v", u)
	}
	// Progress survives: resume with only setup repeated.
	rem := j.RemainingWork()
	if rem != 100_000-wantUseful {
		t.Fatalf("remaining %d", rem)
	}
	end := j.StartMalleable(1000, 100)
	if end != 1000+40+ceilDiv(rem, 100) {
		t.Fatalf("resume end %d", end)
	}
}

func TestMalleableWarningDuringSetupChargesLost(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 300)
	j.State = Waiting
	j.StartMalleable(0, 100)
	j.BeginWarning(100)
	u := j.FinalizeWarning(220) // setup (300s) never completed
	if u.Useful != 0 {
		t.Fatalf("useful %d, want 0", u.Useful)
	}
	if u.Lost != 220*100 {
		t.Fatalf("lost %d, want 22000", u.Lost)
	}
}

func TestMalleableCompletionDuringWarning(t *testing.T) {
	j := NewMalleable(1, 0, 0, 10, 2, 100, 100, 0)
	j.State = Waiting
	j.StartMalleable(0, 10) // ends at 100
	j.BeginWarning(50)
	// Completes inside the warning window.
	u := j.FinalizeMalleableCompletion(100)
	if j.State != Completed {
		t.Fatal("should complete from warning")
	}
	if u.Useful != 1000 {
		t.Fatalf("useful %d", u.Useful)
	}
}

func TestMalleableResizePanicsOutsideBounds(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 0)
	j.State = Waiting
	j.StartMalleable(0, 100)
	for _, n := range []int{10, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for resize to %d", n)
				}
			}()
			j.Resize(10, n)
		}()
	}
}

func TestUpdateProgressBackwardsPanics(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 0)
	j.State = Waiting
	j.StartMalleable(100, 100)
	j.UpdateProgress(200)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	j.UpdateProgress(150)
}

func TestMalleablePreemptionOverheadIsSetup(t *testing.T) {
	j := NewMalleable(1, 0, 0, 100, 20, 1000, 1000, 37)
	j.State = Waiting
	j.StartMalleable(0, 100)
	if got := j.PreemptionOverhead(500); got != 37 {
		t.Fatalf("malleable overhead %d, want setup 37", got)
	}
}

// TestParseClassNoticeRoundTrip: ParseClass and ParseNotice invert String
// over every class and notice category, and refuse every other label.
func TestParseClassNoticeRoundTrip(t *testing.T) {
	for _, c := range []Class{Rigid, OnDemand, Malleable} {
		if got, ok := ParseClass(c.String()); !ok || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for _, n := range []NoticeCategory{NoNotice, AccurateNotice, ArriveEarly, ArriveLate} {
		if got, ok := ParseNotice(n.String()); !ok || got != n {
			t.Errorf("ParseNotice(%q) = %v, %v", n.String(), got, ok)
		}
	}
	for _, s := range []string{"", "Rigid", "ondemand", Class(3).String()} {
		if _, ok := ParseClass(s); ok {
			t.Errorf("ParseClass(%q) accepted", s)
		}
	}
	for _, s := range []string{"", "none", "Late", NoticeCategory(4).String()} {
		if _, ok := ParseNotice(s); ok {
			t.Errorf("ParseNotice(%q) accepted", s)
		}
	}
}
