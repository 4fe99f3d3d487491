package runner

import (
	"os"
	"path/filepath"
	"testing"

	"hybridsched/internal/simtime"
	"hybridsched/internal/workload"
)

// ckptGrid is the resume-coverage grid: four cells with faults, repair
// windows, and an overlapping maintenance drain, so resumed cells must carry
// the down pool, drain phases, and pending failures — the state a plain
// rerun would get wrong.
func ckptGrid() []Spec {
	var specs []Spec
	for _, mech := range []string{"CUA&SPAA", "CUP&PAA"} {
		for s := int64(1); s <= 2; s++ {
			specs = append(specs, Spec{
				Group:     "ckpt",
				Variant:   "W5",
				Mechanism: mech,
				Nodes:     512,
				Workload: workload.Config{
					Seed: s, Nodes: 512, Weeks: 1,
					MinJobSize:  16,
					SizeBuckets: []int{16, 32, 64, 128},
					SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
				},
				FaultMTBF:       6 * 3600,
				FaultMeanRepair: 2 * 3600,
				Drains: []DrainSpec{
					{Start: 2 * simtime.Day, Duration: simtime.Day, Nodes: 64},
				},
			})
		}
	}
	return specs
}

// referenceRun executes the grid with no checkpointing and returns the two
// emitter serializations every checkpointed variant must reproduce.
func referenceRun(t *testing.T, specs []Spec) (string, string) {
	t.Helper()
	ref := Run(specs, Options{Workers: 2})
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}
	j, c := serialize(t, ref)
	return j, c
}

// checkResumedRun runs the grid against the prepared checkpoint directory and
// requires the emitted bytes to match the uncheckpointed reference.
func checkResumedRun(t *testing.T, specs []Spec, dir, wantJSON, wantCSV string) {
	t.Helper()
	sweep := Run(specs, Options{Workers: 2, CheckpointDir: dir, CheckpointEvery: 250, Resume: true})
	if err := sweep.Err(); err != nil {
		t.Fatal(err)
	}
	j, c := serialize(t, sweep)
	if j != wantJSON {
		t.Fatal("resumed sweep JSON differs from uninterrupted reference")
	}
	if c != wantCSV {
		t.Fatal("resumed sweep CSV differs from uninterrupted reference")
	}
	checkDirSettled(t, specs, dir)
}

// checkDirSettled asserts the terminal directory state: every cell has a done
// file and no in-flight snapshots remain.
func checkDirSettled(t *testing.T, specs []Spec, dir string) {
	t.Helper()
	ck := &ckptState{dir: dir}
	for _, spec := range specs {
		s := spec.withDefaults()
		if _, err := os.Stat(ck.donePath(s)); err != nil {
			t.Fatalf("cell %s has no done file: %v", s.Key(), err)
		}
		if _, err := os.Stat(ck.snapPath(s)); !os.IsNotExist(err) {
			t.Fatalf("cell %s still has a snapshot after completion", s.Key())
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("stray snapshots after sweep: %v", snaps)
	}
}

// TestCheckpointedSweepIdentical holds a checkpointing sweep (snapshots every
// 250 events, several per cell) to the byte-identical contract against the
// uncheckpointed reference, and checks the directory settles into done files
// only.
func TestCheckpointedSweepIdentical(t *testing.T) {
	specs := ckptGrid()
	wantJSON, wantCSV := referenceRun(t, specs)
	dir := t.TempDir()
	sweep := Run(specs, Options{Workers: 2, CheckpointDir: dir, CheckpointEvery: 250})
	if err := sweep.Err(); err != nil {
		t.Fatal(err)
	}
	j, c := serialize(t, sweep)
	if j != wantJSON {
		t.Fatal("checkpointed sweep JSON differs from uncheckpointed reference")
	}
	if c != wantCSV {
		t.Fatal("checkpointed sweep CSV differs from uncheckpointed reference")
	}
	checkDirSettled(t, specs, dir)
}

// TestSweepResume reconstructs the directory a killed sweep leaves behind —
// one cell mid-run with a valid snapshot, one cell never started, one cell
// with a torn (corrupt) snapshot, one cell already finished — and requires
// the resumed sweep to emit the uninterrupted reference bytes.
func TestSweepResume(t *testing.T) {
	specs := ckptGrid()
	if len(specs) != 4 {
		t.Fatalf("grid size %d, want 4", len(specs))
	}
	wantJSON, wantCSV := referenceRun(t, specs)

	// Populate the directory fully, then knock cells back into the states a
	// kill can produce.
	dir := t.TempDir()
	full := Run(specs, Options{Workers: 2, CheckpointDir: dir, CheckpointEvery: 250})
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	ck := &ckptState{dir: dir}

	// Cell 0: interrupted mid-run — a genuine midpoint snapshot, no done file.
	s0 := specs[0].withDefaults()
	cache := newTraceCache()
	recs, err := cache.records(s0)
	if err != nil {
		t.Fatal(err)
	}
	s0, engine, err := buildCell(s0, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if ok, err := engine.Step(); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatal("cell completed before the test could snapshot it mid-run")
		}
	}
	blob, err := engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(ck.snapPath(s0), blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ck.donePath(s0)); err != nil {
		t.Fatal(err)
	}

	// Cell 1: killed before it ever ran — nothing on disk.
	s1 := specs[1].withDefaults()
	if err := os.Remove(ck.donePath(s1)); err != nil {
		t.Fatal(err)
	}

	// Cell 2: killed mid-write — a torn snapshot that must be discarded.
	s2 := specs[2].withDefaults()
	if err := os.Remove(ck.donePath(s2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck.snapPath(s2), blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Cell 3: finished before the kill — done file intact.

	checkResumedRun(t, specs, dir, wantJSON, wantCSV)
}

// TestResumeDiscardsCorruptDoneFile: a done file that does not parse is not a
// result; the cell reruns and the sweep still matches the reference.
func TestResumeDiscardsCorruptDoneFile(t *testing.T) {
	specs := ckptGrid()
	wantJSON, wantCSV := referenceRun(t, specs)
	dir := t.TempDir()
	full := Run(specs, Options{Workers: 2, CheckpointDir: dir, CheckpointEvery: 250})
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	ck := &ckptState{dir: dir}
	s0 := specs[0].withDefaults()
	if err := os.WriteFile(ck.donePath(s0), []byte(`{"jobs": `), 0o644); err != nil {
		t.Fatal(err)
	}
	checkResumedRun(t, specs, dir, wantJSON, wantCSV)
}

// TestResumeIgnoresForeignSnapshot: a snapshot written under one spec hash
// must not restore into a cell whose engine shape differs. The spec hash
// normally prevents the collision; this forces it by renaming another cell's
// snapshot file, and the load-time configuration echo must reject it, leaving
// a clean fresh run.
func TestResumeIgnoresForeignSnapshot(t *testing.T) {
	specs := ckptGrid()[:2]
	bigger := specs[1]
	bigger.Nodes = 768
	bigger.Workload.Nodes = 768
	specs[1] = bigger
	wantJSON, wantCSV := referenceRun(t, specs)

	dir := t.TempDir()
	ck := &ckptState{dir: dir}
	s0 := specs[0].withDefaults()
	s1 := specs[1].withDefaults()

	// Mid-run snapshot of cell 0, filed under cell 1's name.
	cache := newTraceCache()
	recs, err := cache.records(s0)
	if err != nil {
		t.Fatal(err)
	}
	_, engine, err := buildCell(s0, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if ok, err := engine.Step(); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatal("cell completed before the test could snapshot it mid-run")
		}
	}
	blob, err := engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(ck.snapPath(s1), blob); err != nil {
		t.Fatal(err)
	}

	checkResumedRun(t, specs, dir, wantJSON, wantCSV)
}
