package hybridsched

import (
	"bytes"
	"encoding/json"
	"testing"
)

// canonReport canonicalizes a report for byte comparison: the wall-clock
// decision-latency fields are the only nondeterministic content.
func canonReport(t *testing.T, r Report) []byte {
	t.Helper()
	r.MeanDecisionMs, r.MaxDecisionMs = 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testRecords(t *testing.T) []Record {
	t.Helper()
	records, err := GenerateWorkload(WorkloadConfig{Seed: 7, Nodes: 512, Weeks: 1})
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// checkSessionRoundTrip runs the option set uninterrupted for the reference
// report, then again with a checkpoint taken mid-run, restores the frame into
// a fresh session, and requires both the checkpointed original and the
// restored session to finish with the reference bytes. It returns the
// reference report.
func checkSessionRoundTrip(t *testing.T, opts ...Option) Report {
	t.Helper()
	records := testRecords(t)

	ref, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := ref.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	refRep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := canonReport(t, refRep)

	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(3 * 24 * Hour); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := s.Checkpoint(&frame); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonReport(t, gotRep); !bytes.Equal(got, want) {
		t.Fatalf("restored session diverges\ngot:  %.300s\nwant: %.300s", got, want)
	}

	// The checkpointed original must finish unperturbed too.
	contRep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonReport(t, contRep); !bytes.Equal(got, want) {
		t.Fatalf("checkpointing perturbed the original session\ngot:  %.300s\nwant: %.300s", got, want)
	}
	return refRep
}

func TestSessionCheckpointRestore(t *testing.T) {
	checkSessionRoundTrip(t,
		WithNodes(512),
		WithMechanism("CUA&SPAA"),
	)
}

func TestSessionCheckpointRestoreFaultsAndDrains(t *testing.T) {
	checkSessionRoundTrip(t,
		WithNodes(512),
		WithMechanism("CUP&PAA"),
		WithFaults(FaultConfig{MTBF: 6 * 3600, Seed: 7, Horizon: 5 * 7 * 24 * Hour, MeanRepair: 2 * 3600}),
		WithDrain(2*24*Hour, 2*24*Hour, 32),
		WithDrain(4*24*Hour, 12*Hour, 64),
	)
}

func TestSessionCheckpointRestoreBaselinePolicy(t *testing.T) {
	checkSessionRoundTrip(t,
		WithNodes(512),
		WithMechanism("baseline"),
		WithPolicy("sjf"),
	)
}

// TestSessionCheckpointRestoreCustomRepairTime resumes a run whose repair
// distribution is a function, which the frame cannot hold: pending failures
// carry their drawn repair times, so the restored session never calls it.
func TestSessionCheckpointRestoreCustomRepairTime(t *testing.T) {
	rep := checkSessionRoundTrip(t,
		WithNodes(512),
		WithMechanism("CUP&PAA"),
		WithFaults(FaultConfig{
			MTBF: 3 * 3600, Seed: 7, Horizon: 5 * 7 * 24 * Hour, MeanRepair: 3600,
			RepairTime: func(u float64) float64 { return 300 + 7200*u*u },
		}),
	)
	if rep.FailuresInjected == 0 || rep.DownNodeSeconds == 0 {
		t.Fatalf("no repairs exercised: %d strikes, %d down node-seconds", rep.FailuresInjected, rep.DownNodeSeconds)
	}
}

func TestCheckpointRejectsCustomScheduler(t *testing.T) {
	s, err := NewSession(WithNodes(64), WithScheduler(Baseline{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("checkpoint of a WithScheduler session succeeded")
	}
}

func TestCheckpointRejectsUndrainedSources(t *testing.T) {
	records := testRecords(t)
	s, err := NewSession(WithNodes(512), WithSource(FromRecords(records)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("checkpoint with undrained sources succeeded")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	records := testRecords(t)
	s, err := NewSession(WithNodes(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(24 * Hour); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := s.Checkpoint(&frame); err != nil {
		t.Fatal(err)
	}
	valid := frame.Bytes()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", valid[:10]},
		{"truncated-payload", valid[:len(valid)/2]},
		{"flipped-magic", flipByte(valid, 0)},
		{"flipped-mid", flipByte(valid, len(valid)/2)},
		{"flipped-crc", flipByte(valid, len(valid)-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("restore of corrupted frame succeeded")
			}
		})
	}

	// The pristine frame must still restore after all that.
	if _, err := Restore(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x40
	return out
}
