package hybridsched

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"
)

// frameFixtures are version-1 session frames that an earlier build wrote
// (testdata, gzipped). Each was taken at virtual time at of a session built
// with opts that had every record of workload submitted. "full" sets every
// field of the session envelope away from its default: the explicit-zero
// checkpoint multiplier and release threshold, BackfillReserved,
// NoDirectedReturn, Validate, MaxSimTime and faults with repairs. It was
// taken with a drain window open and jobs both queued and running.
// "defaults" sets no option at all.
var frameFixtures = []struct {
	name     string
	file     string
	at       int64
	workload WorkloadConfig
	opts     []Option
}{
	{
		name: "full", file: "testdata/session_v1_full.frame.gz", at: 61 * Hour,
		workload: WorkloadConfig{Seed: 7, Nodes: 256, Weeks: 1},
		opts: []Option{
			WithNodes(256), WithMechanism("CUP&SPAA"), WithPolicy("sjf"),
			WithMTBF(12 * 3600), WithCheckpointFreqMult(0), WithReleaseThreshold(0),
			WithBackfillReserved(true), WithDirectedReturn(false), WithValidate(true),
			WithMaxSimTime(12 * 7 * 24 * Hour),
			WithFaults(FaultConfig{MTBF: 8 * 3600, Seed: 5, Horizon: 5 * 7 * 24 * Hour, MeanRepair: 2 * 3600}),
			WithDrain(2*24*Hour, 2*24*Hour, 32),
		},
	},
	{
		name: "defaults", file: "testdata/session_v1_defaults.frame.gz", at: 2 * 24 * Hour,
		workload: WorkloadConfig{Seed: 3, Weeks: 1},
	},
}

// TestSessionFrameFromEarlierBuild restores each fixture and requires two
// things: that Checkpoint, called right away, writes the fixture's bytes
// again, and that the restored run finishes with the report of the
// uninterrupted run. So the envelope's layout and what each of its fields
// means cannot change without a version bump unnoticed.
func TestSessionFrameFromEarlierBuild(t *testing.T) {
	for _, fx := range frameFixtures {
		t.Run(fx.name, func(t *testing.T) {
			frame := readGzip(t, fx.file)
			records, err := GenerateWorkload(fx.workload)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSession(fx.opts...)
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

			s, err := Restore(bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			snap := s.Snapshot()
			if snap.Now != fx.at || len(snap.Running) == 0 || len(snap.Queued) == 0 {
				t.Fatalf("frame at t=%d holds %d running and %d queued jobs; want a mid-run frame at t=%d",
					snap.Now, len(snap.Running), len(snap.Queued), fx.at)
			}
			var again bytes.Buffer
			if err := s.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), frame) {
				t.Fatalf("checkpoint of the restored session differs from the fixture (%d vs %d bytes)", again.Len(), len(frame))
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonReport(t, got), canonReport(t, refRep); !bytes.Equal(g, w) {
				t.Fatalf("restored run diverges\ngot:  %.300s\nwant: %.300s", g, w)
			}
		})
	}
}

// readGzip returns the decompressed contents of a gzipped testdata file.
func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
