package metrics

import (
	"testing"

	"hybridsched/internal/job"
	"hybridsched/internal/snapshot"
)

// TestDecodeRefusesInvalidClass: a frame whose job result carries a class
// byte outside rigid/on-demand/malleable must fail to decode, as the job
// decoder refuses the same byte, instead of restoring a job that All counts
// and no class does. The same frame with a valid class decodes.
func TestDecodeRefusesInvalidClass(t *testing.T) {
	decode := func(class job.Class) (*Collector, error) {
		c := NewCollector(100)
		c.NoteSubmit(0)
		j := completeJob(1, job.Rigid, 0, 0, 50, 4, 0)
		j.Class = class
		c.NoteComplete(j)
		var enc snapshot.Enc
		c.EncodeSnapshot(&enc)
		d := snapshot.NewDec(enc.Bytes())
		got := DecodeSnapshotCollector(d)
		return got, d.Err()
	}
	if got, err := decode(job.Malleable); got == nil || err != nil {
		t.Fatalf("valid class refused: %v", err)
	}
	if got, err := decode(7); got != nil || err == nil {
		t.Fatalf("class 7 decoded (collector returned: %v, error: %v)", got != nil, err)
	}
}

// TestNoteSubmitOutOfOrder: incremental sessions note submissions one at a
// time in trace order, which need not be time order; the window (and the
// reserved-idle integration origin) must land exactly where a single batch
// NoteSubmit of the minimum would have put them.
func TestNoteSubmitOutOfOrder(t *testing.T) {
	batch := NewCollector(100)
	batch.NoteSubmit(50)

	inc := NewCollector(100)
	for _, s := range []int64{400, 50, 300} {
		inc.NoteSubmit(s)
	}

	for _, c := range []*Collector{batch, inc} {
		c.NoteReserved(100, 10) // reserve 10 nodes at t=100
		c.NoteReserved(200, 0)  // release at t=200
	}
	b, i := batch.Snapshot(200), inc.Snapshot(200)
	if b.WindowStart != 50 || i.WindowStart != 50 {
		t.Fatalf("window starts %d / %d, want 50", b.WindowStart, i.WindowStart)
	}
	if b.ReservedIdleNodeSeconds != i.ReservedIdleNodeSeconds {
		t.Fatalf("reserved-idle diverged: batch %d, incremental %d",
			b.ReservedIdleNodeSeconds, i.ReservedIdleNodeSeconds)
	}
	if want := int64(10 * 100); b.ReservedIdleNodeSeconds != want {
		t.Fatalf("reserved-idle %d, want %d", b.ReservedIdleNodeSeconds, want)
	}
}

// TestSnapshotDoesNotDisturbCollector: interleaving snapshots with a run
// must not change the final report.
func TestSnapshotDoesNotDisturbCollector(t *testing.T) {
	run := func(snapshots bool) Report {
		c := NewCollector(64)
		c.NoteSubmit(0)
		c.NoteReserved(10, 32)
		if snapshots {
			c.Snapshot(15)
			c.Snapshot(20)
		}
		c.NoteReserved(30, 0)
		c.AddUsage(job.Usage{Useful: 1000, Setup: 50, Ckpt: 20, Lost: 5})
		j := &job.Job{ID: 1, Class: job.Rigid, SubmitTime: 0, Size: 32,
			StartTime: 10, EndTime: 40, State: job.Completed}
		c.NoteComplete(j)
		if snapshots {
			c.Snapshot(40)
		}
		return c.Report()
	}
	plain, observed := run(false), run(true)
	if plain.Utilization != observed.Utilization ||
		plain.Breakdown != observed.Breakdown ||
		plain.Makespan != observed.Makespan {
		t.Fatalf("snapshots disturbed the report: %+v vs %+v", plain, observed)
	}
}

// TestSnapshotLiveIntegral: the snapshot closes the reserved-idle integral
// at its own instant without mutating the pending state.
func TestSnapshotLiveIntegral(t *testing.T) {
	c := NewCollector(10)
	c.NoteSubmit(0)
	c.NoteReserved(100, 4) // 4 nodes reserved from t=100 on
	s1 := c.Snapshot(150)
	if want := int64(4 * 50); s1.ReservedIdleNodeSeconds != want {
		t.Fatalf("snapshot at 150: reserved-idle %d, want %d", s1.ReservedIdleNodeSeconds, want)
	}
	s2 := c.Snapshot(200)
	if want := int64(4 * 100); s2.ReservedIdleNodeSeconds != want {
		t.Fatalf("snapshot at 200: reserved-idle %d, want %d", s2.ReservedIdleNodeSeconds, want)
	}
	if s1.Completed != 0 || s1.Utilization != 0 {
		t.Fatalf("empty run snapshot: %+v", s1)
	}
}
