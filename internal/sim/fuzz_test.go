package sim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/faults"
	"hybridsched/internal/job"
	"hybridsched/internal/registry"
	"hybridsched/internal/sim"
	"hybridsched/internal/snapshot"
)

// fuzzEngine builds the small fixed engine every fuzz iteration decodes into:
// a core mechanism under the fault injector, replaying all three job classes
// on 64 nodes, so LoadSnapshot exercises its full decode surface (job index,
// mechanism state, timer payloads, pending failures and repairs).
func fuzzEngine(t testing.TB) *sim.Engine {
	t.Helper()
	jobs := []*job.Job{
		job.NewRigid(1, 0, 0, 16, 3600, 3600, 0, checkpoint.Plan{}),
		job.NewMalleable(2, 0, 100, 32, 8, 7200, 7200, 0),
		job.NewOnDemand(3, 0, 200, 8, 1800, 1800, 0, job.NoNotice, 200, 200),
		job.NewRigid(4, 0, 4000, 48, 3600, 4000, 0, checkpoint.Plan{}),
		job.NewOnDemand(5, 0, 5000, 24, 900, 900, 0, 600, 4400, 4400),
	}
	mech, err := registry.NewScheduler("CUP&PAA", registry.SchedulerConfig{DirectedReturn: true})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := faults.Wrap(mech, faults.Config{MTBF: 3600, Seed: 3, Horizon: 200000, MeanRepair: 600})
	e, err := sim.New(sim.Config{Nodes: 64}, jobs, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzLoadSnapshot feeds arbitrary bytes — seeded with a genuine mid-run
// snapshot and systematic corruptions of it — into Engine.LoadSnapshot. The
// contract under test: malformed input returns an error, never panics, and
// never half-mutates the engine (a failed load leaves the engine able to
// finish its original run).
func FuzzLoadSnapshot(f *testing.F) {
	donor := fuzzEngine(f)
	for i := 0; i < 40; i++ {
		if ok, err := donor.Step(); err != nil || !ok {
			f.Fatalf("donor run ended early: step %d, err %v", i, err)
		}
	}
	valid, err := donor.Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:10])
	f.Add(valid[:len(valid)/2])
	for _, off := range []int{0, 4, 8, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x40 // magic, version, length, payload, CRC
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e := fuzzEngine(t)
		if err := e.LoadSnapshot(data); err != nil {
			// Rejected: the engine must be untouched and finish cleanly.
			if _, err := e.Run(); err != nil {
				t.Fatalf("failed load corrupted the engine: %v", err)
			}
			return
		}
		// Accepted (the pristine seed, or a mutation the checks cannot
		// distinguish from a valid frame): the restored engine may at worst
		// report a runtime error — never panic.
		_, _ = e.Run()
	})
}

// TestLoadSnapshotRejectsVersionSkew re-frames a valid payload under the
// previous format version: LoadSnapshot must refuse it by version, before
// decoding a byte, and leave the engine able to finish its own run.
func TestLoadSnapshotRejectsVersionSkew(t *testing.T) {
	donor := fuzzEngine(t)
	for i := 0; i < 40; i++ {
		if _, err := donor.Step(); err != nil {
			t.Fatal(err)
		}
	}
	valid, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := snapshot.Unframe(valid)
	if err != nil {
		t.Fatal(err)
	}
	e := fuzzEngine(t)
	err = e.LoadSnapshot(snapshot.Frame(1, payload))
	if want := fmt.Sprintf("snapshot version 1, this build reads %d", sim.EngineSnapshotVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadSnapshot of a version-1 frame: %v, want %q", err, want)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("rejected load corrupted the engine: %v", err)
	}
}

// TestLoadSnapshotRefusesReferenceFlag sets the byte version-2 frames keep
// for the retired reference engine path: this build writes it false and
// must refuse a frame that says otherwise.
func TestLoadSnapshotRefusesReferenceFlag(t *testing.T) {
	donor := fuzzEngine(t)
	for i := 0; i < 40; i++ {
		if _, err := donor.Step(); err != nil {
			t.Fatal(err)
		}
	}
	valid, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := snapshot.Unframe(valid)
	if err != nil {
		t.Fatal(err)
	}
	// The configuration echo ahead of the flag: nodes, policy,
	// BackfillReserved, MaxSimTime.
	var echo snapshot.Enc
	echo.Int(64)
	echo.String("fcfs")
	echo.Bool(false)
	echo.I64(0)
	off := len(echo.Bytes())
	if !bytes.HasPrefix(payload, echo.Bytes()) || payload[off] != 0 {
		t.Fatalf("frame does not start with the expected configuration echo and a false flag")
	}
	payload[off] = 1
	e := fuzzEngine(t)
	if err := e.LoadSnapshot(snapshot.Frame(sim.EngineSnapshotVersion, payload)); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("LoadSnapshot of a frame with the reference flag set: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("rejected load corrupted the engine: %v", err)
	}
}
