package simtest

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"

	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
)

// snapshotDrains is the maintenance schedule the drain-enabled restore cells
// use: two overlapping windows inside the first simulated week, so snapshots
// taken at the midpoints catch windows in every phase — scheduled, open and
// absorbing, and closed.
func snapshotDrains(e *sim.Engine, t *testing.T) {
	t.Helper()
	if err := e.ScheduleDrain(2*simtime.Day, 2*simtime.Day, 64); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleDrain(3*simtime.Day, 12*simtime.Hour, 128); err != nil {
		t.Fatal(err)
	}
}

// buildEngine materializes a fresh engine for the scenario, optionally with
// the test maintenance schedule attached.
func buildEngine(t *testing.T, sc Scenario, drains bool) *sim.Engine {
	t.Helper()
	records, err := sc.Records()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(sc, records)
	if err != nil {
		t.Fatal(err)
	}
	if drains {
		snapshotDrains(e, t)
	}
	return e
}

// stepN advances the engine by at most n events and reports whether the run
// completed within them.
func stepN(t *testing.T, e *sim.Engine, n int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return true
		}
	}
	return false
}

// finish runs the engine to completion and returns the canonical report.
func finish(t *testing.T, e *sim.Engine) []byte {
	t.Helper()
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRestoreEquivalence is the golden snapshot check for one grid cell:
//
//  1. run the scenario uninterrupted, counting events, and keep its canonical
//     report as the reference bytes;
//  2. run it again, snapshotting at three midpoints (¼, ½, ¾ of the event
//     count) while continuing to completion — the second run must still match
//     the reference, proving Snapshot is side-effect-free;
//  3. restore each snapshot into a freshly built engine and run to
//     completion — every resumed run must reproduce the reference bytes
//     exactly.
//
// The restored engines are built the ordinary way (arrival events, fault
// timelines, and drain schedules already pushed), so the check also proves
// LoadSnapshot fully replaces that pre-seeded state. Every engine runs under
// Validate, so a restore that rebuilds the incremental scheduler state wrong
// fails at the first scheduler pass after it.
func checkRestoreEquivalence(t *testing.T, sc Scenario, drains bool) {
	t.Helper()
	sc.Validate = true

	ref := buildEngine(t, sc, drains)
	total := 0
	for {
		ok, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total++
	}
	want, err := ReportJSON(ref.Report())
	if err != nil {
		t.Fatal(err)
	}
	if total < 8 {
		t.Fatalf("run too short to snapshot midpoints: %d events", total)
	}

	second := buildEngine(t, sc, drains)
	var snaps [][]byte
	at := 0
	for _, point := range []int{total / 4, total / 2, 3 * total / 4} {
		if stepN(t, second, point-at) {
			t.Fatalf("run completed before midpoint %d of %d", point, total)
		}
		at = point
		snap, err := second.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if got := finish(t, second); !bytes.Equal(got, want) {
		t.Fatalf("snapshotting perturbed the run\ngot:  %s\nwant: %s", truncate(got), truncate(want))
	}

	for i, snap := range snaps {
		restored := buildEngine(t, sc, drains)
		if err := restored.LoadSnapshot(snap); err != nil {
			t.Fatalf("restore midpoint %d: %v", i+1, err)
		}
		if got := finish(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("restored run diverges at midpoint %d\ngot:  %s\nwant: %s",
				i+1, truncate(got), truncate(want))
		}
	}
}

// TestSnapshotRestoreEquivalence holds every mechanism × mix cell to the
// byte-identical-resume contract on clean runs.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				checkRestoreEquivalence(t, sc, false)
			})
		}
	}
}

// TestSnapshotRestoreEquivalenceFaults repeats the grid with the fault
// injector (random failures, repair windows) and overlapping maintenance
// drains enabled, so restores must also carry the down pool, drain windows in
// every phase, and pending failure and repair events.
func TestSnapshotRestoreEquivalenceFaults(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := faultScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				checkRestoreEquivalence(t, sc, true)
			})
		}
	}
}

// TestSnapshotFrameFromEarlierBuild resumes a version-2 frame that an
// earlier build of the engine wrote (testdata, gzipped), so the frame layout
// cannot change without a version bump unnoticed: no other test reads a
// frame this build did not write. The cell carries mechanism state, faults,
// an open drain window, a non-FCFS policy and BackfillReserved; the frame
// was taken at step 224 of a run with the frozen stopwatch, with two
// malleable jobs running (one shrunk) and eleven queued. Restored under
// Validate, the run must finish with the uninterrupted run's canonical
// report.
func TestSnapshotFrameFromEarlierBuild(t *testing.T) {
	sc := faultScale("CUA&SPAA", "W5")
	sc.Nodes, sc.Policy, sc.BackfillReserved = 256, "sjf", true
	f, err := os.Open("testdata/engine_v2_sjf_cuaspaa_w5.frame.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want := finish(t, buildEngine(t, sc, true))

	sc.Validate = true
	restored := buildEngine(t, sc, true)
	if err := restored.LoadSnapshot(frame); err != nil {
		t.Fatal(err)
	}
	if len(restored.RunningAll()) == 0 || restored.QueueDepth() == 0 {
		t.Fatalf("frame holds %d running and %d queued jobs; want a mid-run frame", len(restored.RunningAll()), restored.QueueDepth())
	}
	if got := finish(t, restored); !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverges\ngot:  %s\nwant: %s", truncate(got), truncate(want))
	}
}
