package simtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
)

// crossBuildDigest is the SHA-256 of every frame, event and canonical report
// the TestCrossBuildDigest grid produces. A change that keeps the engine's
// output byte-identical keeps it; a change that means to alter the output
// must say so and update it.
const crossBuildDigest = "c947e72488442f3279f6f93c7a555b9988d883c1ef56fee57c06d8564569366c"

// TestCrossBuildDigest pins the engine's observable output across builds:
// its snapshot frames every 37 steps, its typed event stream, and the
// canonical report of each cell of fcfs/sjf/wfp3 × seven mechanisms ×
// W2/W5 × {clean, 6 h-MTBF faults with 1 h repair plus a 48h+4h:64 drain} ×
// BackfillReserved off/on, at 256 nodes over one week, all on the frozen
// stopwatch. Other suites compare two runs of one build; this one compares
// a build with the ones before it, so a refactor of the event loop or the
// frame codec that changes a single byte anywhere fails here. Like
// TestRealTraceGolden, the digest assumes amd64 floating point.
func TestCrossBuildDigest(t *testing.T) {
	h := sha256.New()
	frames, events := 0, 0
	for _, pol := range []string{"fcfs", "sjf", "wfp3"} {
		for _, mech := range Mechanisms() {
			for _, mix := range []string{"W2", "W5"} {
				for _, faulted := range []bool{false, true} {
					for _, bf := range []bool{false, true} {
						sc := Scenario{Mechanism: mech, Mix: mix, Seed: 1, Nodes: 256, Weeks: 1, Policy: pol, BackfillReserved: bf}
						if faulted {
							sc.FaultMTBF, sc.FaultRepair = 6*3600, 3600
						}
						name := fmt.Sprintf("%s/%s/%s/faults=%v/backfill-reserved=%v", pol, mech, mix, faulted, bf)
						f, n := digestCell(t, h, name, sc, faulted)
						frames += f
						events += n
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != crossBuildDigest {
		t.Fatalf("cross-build digest over %d frames and %d events is %s, want %s", frames, events, got, crossBuildDigest)
	}
}

// digestCell runs one cell to completion, writing its name, every event,
// a frame every 37 steps, and the canonical report into h. It returns the
// frame and event counts.
func digestCell(t *testing.T, h hash.Hash, name string, sc Scenario, drain bool) (frames, events int) {
	t.Helper()
	records, err := sc.Records()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(sc, records, simtime.Frozen)
	if err != nil {
		t.Fatal(err)
	}
	if drain {
		if err := e.ScheduleDrain(48*simtime.Hour, 4*simtime.Hour, 64); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	writeBlock := func(b []byte) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(b)))
		h.Write(buf)
		h.Write(b)
	}
	writeBlock([]byte(name))
	e.SetEventSink(func(ev sim.Event) {
		events++
		for _, v := range [...]int64{int64(ev.Type), ev.Time, int64(ev.Job), int64(ev.Class), int64(ev.Nodes)} {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(v))
			h.Write(buf)
		}
	})
	for step := 1; ; step++ {
		more, err := e.Step()
		if err != nil {
			t.Fatalf("%s: step %d: %v", name, step, err)
		}
		if !more {
			break
		}
		if step%37 != 0 {
			continue
		}
		frame, err := e.Snapshot()
		if err != nil {
			t.Fatalf("%s: step %d: %v", name, step, err)
		}
		writeBlock(frame)
		frames++
	}
	rep, err := ReportJSON(e.Report())
	if err != nil {
		t.Fatal(err)
	}
	writeBlock(rep)
	return frames, events
}
