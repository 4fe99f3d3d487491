package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
	"hybridsched/internal/stats"
)

// completeJob fabricates a completed rigid/od/malleable job for the collector.
func completeJob(id int, class job.Class, submit, start, end int64, size, preempts int) *job.Job {
	var j *job.Job
	switch class {
	case job.Malleable:
		j = job.NewMalleable(id, 0, submit, size, 1, 100, 100, 0)
	case job.OnDemand:
		j = job.NewOnDemand(id, 0, submit, size, 100, 100, 0, job.NoNotice, submit, submit)
	default:
		j = job.NewRigid(id, 0, submit, size, 100, 100, 0, checkpoint.Plan{})
	}
	j.StartTime = start
	j.EndTime = end
	j.State = job.Completed
	j.PreemptCount = preempts
	return j
}

func TestEmptyReport(t *testing.T) {
	c := NewCollector(100)
	r := c.Report()
	if r.Jobs != 0 || r.Makespan != 0 || r.Utilization != 0 {
		t.Fatalf("empty report not zero: %+v", r)
	}
}

func TestWindowAndMakespan(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(100)
	c.NoteSubmit(50) // earlier submit extends the window backwards
	c.NoteComplete(completeJob(1, job.Rigid, 50, 60, 500, 4, 0))
	c.NoteComplete(completeJob(2, job.Rigid, 100, 110, 900, 4, 0))
	r := c.Report()
	if r.Makespan != 850 {
		t.Fatalf("makespan %d, want 850", r.Makespan)
	}
	if r.Jobs != 2 {
		t.Fatalf("jobs %d", r.Jobs)
	}
}

func TestUtilizationLedger(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(0)
	// One job: 100s useful + 10s setup + 5s ckpt + 20s lost on 10 nodes... as
	// node-seconds directly.
	c.AddUsage(job.Usage{Useful: 1000, Setup: 100, Ckpt: 50, Lost: 200})
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 1000, 10, 1))
	r := c.Report()
	total := float64(10 * 1000)
	wantUtil := (1000.0 + 100 + 50) / total
	if diff := r.Utilization - wantUtil; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("utilization %g, want %g", r.Utilization, wantUtil)
	}
	if r.Breakdown.Lost != 200/total {
		t.Fatalf("lost fraction %g", r.Breakdown.Lost)
	}
	sum := r.Breakdown.Useful + r.Breakdown.Setup + r.Breakdown.Ckpt +
		r.Breakdown.Lost + r.Breakdown.ReservedIdle + r.Breakdown.Idle
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("breakdown sums to %g", sum)
	}
}

func TestReservedIdleIntegration(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(0)
	c.NoteReserved(0, 4)   // 4 nodes reserved from t=0
	c.NoteReserved(100, 0) // released at t=100 -> 400 node-seconds
	c.NoteReserved(100, 2) // re-reserve 2
	c.NoteReserved(150, 2) // plateau -> +100
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 200, 10, 0))
	r := c.Report()
	// 400 + 100 + 2*(200-150) = 600 node-seconds reserved idle of 2000.
	if got := r.Breakdown.ReservedIdle; got != 600.0/2000 {
		t.Fatalf("reserved idle %g, want 0.3", got)
	}
}

func TestPerClassStatsAndPreemptRatios(t *testing.T) {
	c := NewCollector(100)
	c.NoteSubmit(0)
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 3600, 4, 1))
	c.NoteComplete(completeJob(2, job.Rigid, 0, 0, 7200, 4, 0))
	c.NoteComplete(completeJob(3, job.Malleable, 0, 0, 1800, 4, 1))
	c.NoteComplete(completeJob(4, job.OnDemand, 0, 0, 900, 4, 0))
	r := c.Report()
	if r.Rigid.Count != 2 || r.Malleable.Count != 1 || r.OnDemand.Count != 1 {
		t.Fatalf("class counts wrong: %+v", r)
	}
	if r.Rigid.PreemptRatio != 0.5 {
		t.Fatalf("rigid preempt ratio %g", r.Rigid.PreemptRatio)
	}
	if r.Malleable.PreemptRatio != 1.0 {
		t.Fatalf("malleable preempt ratio %g", r.Malleable.PreemptRatio)
	}
	if r.Rigid.MeanTurnaroundH != 1.5 {
		t.Fatalf("rigid mean turnaround %g h", r.Rigid.MeanTurnaroundH)
	}
	if r.All.Count != 4 {
		t.Fatalf("all count %d", r.All.Count)
	}
}

// TestAllSummaryMatchesWholeSample: the all-jobs summary, merged from the
// sorted class samples, equals a summary of the whole sample bit for bit,
// including a job whose class has no sample of its own.
func TestAllSummaryMatchesWholeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCollector(100)
	c.NoteSubmit(0)
	var turn []float64
	for id := 1; id <= 300; id++ {
		class := job.Class(rng.Intn(3))
		end := int64(1 + rng.Intn(50_000))
		j := completeJob(id, class, 0, 0, end, 4, rng.Intn(2))
		if id == 300 {
			j.Class = job.Malleable + 1
		}
		c.NoteComplete(j)
		turn = append(turn, float64(j.Turnaround()))
	}
	r := c.Report()
	if want := stats.Summarize(turn); r.All.Turnaround != want {
		t.Fatalf("All turnaround %+v, whole-sample summary %+v", r.All.Turnaround, want)
	}
	if n := r.Rigid.Count + r.OnDemand.Count + r.Malleable.Count; n != 299 {
		t.Fatalf("class counts sum to %d, want 299", n)
	}
}

func TestInstantStartRates(t *testing.T) {
	c := NewCollector(100)
	c.NoteSubmit(0)
	// Delay 0: strict instant. Delay 120: tolerant instant. Delay 121: not.
	c.NoteComplete(completeJob(1, job.OnDemand, 100, 100, 500, 4, 0))
	c.NoteComplete(completeJob(2, job.OnDemand, 100, 220, 500, 4, 0))
	c.NoteComplete(completeJob(3, job.OnDemand, 100, 221, 600, 4, 0))
	r := c.Report()
	if r.StrictInstantStartRate != 1.0/3 {
		t.Fatalf("strict rate %g", r.StrictInstantStartRate)
	}
	if r.InstantStartRate != 2.0/3 {
		t.Fatalf("tolerant rate %g", r.InstantStartRate)
	}
	if r.MeanStartDelay != (0.0+120+121)/3 {
		t.Fatalf("mean delay %g", r.MeanStartDelay)
	}
}

func TestDecisionLatency(t *testing.T) {
	c := NewCollector(10)
	c.NoteDecision(2 * time.Millisecond)
	c.NoteDecision(4 * time.Millisecond)
	c.NoteSubmit(0)
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 100, 4, 0))
	r := c.Report()
	if r.DecisionCount != 2 {
		t.Fatalf("decision count %d", r.DecisionCount)
	}
	if r.MeanDecisionMs < 2.9 || r.MeanDecisionMs > 3.1 {
		t.Fatalf("mean decision %g ms", r.MeanDecisionMs)
	}
	if r.MaxDecisionMs < 3.9 || r.MaxDecisionMs > 4.1 {
		t.Fatalf("max decision %g ms", r.MaxDecisionMs)
	}
}

func TestNoteReservedMonotonicTime(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(0)
	c.NoteReserved(50, 3)
	c.NoteReserved(50, 5) // same instant: just update level
	c.NoteReserved(60, 0) // 5*10 node-seconds
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 100, 4, 0))
	r := c.Report()
	want := float64(5*10) / float64(10*100)
	if r.Breakdown.ReservedIdle != want {
		t.Fatalf("reserved idle %g, want %g", r.Breakdown.ReservedIdle, want)
	}
}

func TestAvailabilityLedger(t *testing.T) {
	c := NewCollector(100)
	c.NoteSubmit(0)
	c.NoteDown(10, 5) // 0..10 at level 0
	c.NoteDown(30, 0) // 10..30 at level 5 -> 100 node-seconds
	c.NoteFailure(true)
	c.NoteFailure(true)
	c.NoteFailure(false)
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 50, 10, 0))
	r := c.Report()
	if r.DownNodeSeconds != 100 {
		t.Fatalf("DownNodeSeconds = %d, want 100", r.DownNodeSeconds)
	}
	if r.FailuresInjected != 2 || r.FailureMisses != 1 {
		t.Fatalf("failure counters = %d/%d, want 2/1", r.FailuresInjected, r.FailureMisses)
	}
	// 100 down node-seconds over a 100-node, 50-second window.
	if got, want := r.Breakdown.Unavailable, 100.0/(100.0*50.0); got != want {
		t.Fatalf("Breakdown.Unavailable = %g, want %g", got, want)
	}
	snap := c.Snapshot(40)
	if snap.DownNodeSeconds != 100 || snap.Failures != 2 || snap.FailureMisses != 1 {
		t.Fatalf("snapshot availability fields wrong: %+v", snap)
	}
}

func TestCleanReportOmitsAvailabilityFields(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(0)
	c.NoteComplete(completeJob(1, job.Rigid, 0, 0, 20, 4, 0))
	b, err := json.Marshal(c.Report())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"FailuresInjected", "FailureMisses", "DownNodeSeconds", "Unavailable"} {
		if bytes.Contains(b, []byte(field)) {
			t.Fatalf("clean report serializes availability field %s:\n%s", field, b)
		}
	}
}
