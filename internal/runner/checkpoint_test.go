package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridsched/internal/core"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
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

// cellEngine builds the engine of a resolved generated cell, as runOne does.
func cellEngine(t *testing.T, s Spec) *sim.Engine {
	t.Helper()
	recs, err := newTraceCache().records(s)
	if err != nil {
		t.Fatal(err)
	}
	r := s.recipe()
	e, err := r.Build(trace.Materialize(recs, r.Plan))
	if err != nil {
		t.Fatal(err)
	}
	return e
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
	engine := cellEngine(t, s0)
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
	engine := cellEngine(t, s0)
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

// keyedSpec sets every field of Spec, of its Workload and Core, and of one
// drain to a non-zero value.
func keyedSpec() Spec {
	return Spec{
		Group: "fig6", Variant: "W2", Mechanism: "CUA&SPAA", Policy: "sjf", Nodes: 512,
		Source: "csv:t.csv|scale:1.2",
		Workload: workload.Config{
			Seed: 7, Nodes: 512, Weeks: 2, Span: 2 * simtime.Week, Projects: 40,
			TargetLoad: 0.9, MinJobSize: 16, MaxRuntime: simtime.Day, MinRuntime: 600,
			SizeWeights: []float64{0.6, 0.4}, SizeBuckets: []int{16, 32},
			RuntimeMedian: 2400, RuntimeSigma: 1.1,
			OnDemandProjectFrac: 0.1, RigidProjectFrac: 0.6,
			Mix: workload.W2, NoticeLeadMin: 900, NoticeLeadMax: 1800, LateWindow: 1800,
			OnDemandMaxGen: 256, MalleableMinFrac: 0.2,
			RigidSetupMin: 0.05, RigidSetupMax: 0.1,
			MalleableSetupMin: 0.01, MalleableSetupMax: 0.05,
			JobsPerSession: 5, OnDemandJobsPerSession: 10,
		},
		Core:         core.Config{ReleaseThreshold: 600, DirectedReturn: true, BackfillReserved: true},
		MTBF:         24 * 3600,
		CkptFreqMult: 0.5,
		Validate:     true,
		FaultMTBF:    6 * 3600, FaultMeanRepair: 3600, FaultSeed: 3, FaultHorizon: 6 * simtime.Week,
		Drains: []DrainSpec{{Start: simtime.Day, Duration: 4 * 3600, Nodes: 128}},
	}
}

// TestCellIDGolden pins the checkpoint file key of a fully populated spec and
// of a sparse one. A change to either renames existing cell files, and a
// resumed sweep would then silently rerun every cell from scratch.
func TestCellIDGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"full", keyedSpec(), "ac99e0f587f7b6dd"},
		{"sparse", Spec{Mechanism: "baseline", Policy: "fcfs", Nodes: 512, Workload: workload.Config{Seed: 1}}, "378771d46dd773af"},
	}
	for _, tc := range cases {
		if got := cellID(tc.spec); got != tc.want {
			t.Errorf("%s: cellID = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCellIDCoversEverySpecField: changing any field of a populated spec —
// the fields of its Workload, Core and drains included — changes its key, so
// a field added to Spec fails here until cellID writes it.
func TestCellIDCoversEverySpecField(t *testing.T) {
	base := cellID(keyedSpec())
	var paths []string
	specLeaves(reflect.ValueOf(keyedSpec()), "Spec", func(path string, _ reflect.Value) {
		paths = append(paths, path)
	})
	for i, path := range paths {
		s := keyedSpec()
		n := 0
		specLeaves(reflect.ValueOf(&s).Elem(), "Spec", func(_ string, v reflect.Value) {
			if n == i {
				bumpLeaf(t, path, v)
			}
			n++
		})
		if cellID(s) == base {
			t.Errorf("cellID ignores %s", path)
		}
	}
	if len(paths) < 40 {
		t.Fatalf("walked only %d fields: %v", len(paths), paths)
	}
}

// specLeaves calls f with every non-struct field below v, walking into
// structs and into each element of a slice of structs.
func specLeaves(v reflect.Value, path string, f func(string, reflect.Value)) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			specLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Struct:
		for i := 0; i < v.Len(); i++ {
			specLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	default:
		f(path, v)
	}
}

// bumpLeaf changes a field to a different value: a slice or array through
// its first element (an empty slice gains one).
func bumpLeaf(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		bumpLeaf(t, path, v.Index(0))
	default:
		t.Fatalf("%s: no way to change a %s field", path, v.Kind())
	}
}
