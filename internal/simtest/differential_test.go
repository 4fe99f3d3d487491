package simtest

import (
	"bytes"
	"fmt"
	"testing"

	"hybridsched/internal/metrics"
	"hybridsched/internal/simtime"
)

// testScale is the grid scale the harness tests run at: the full 7-mechanism
// × W1..W5 grid on a 1024-node system over one simulated week (a few hundred
// jobs and a few thousand events per cell) — the same scale cmd/benchengine
// measures.
func testScale(mech, mix string) Scenario {
	return Scenario{Mechanism: mech, Mix: mix, Seed: 1, Nodes: 1024, Weeks: 1}
}

// checkedRun runs sc to completion under Validate with the InvariantChecker
// attached, failing t on the first scheduler pass whose plan or incremental
// state disagrees with the from-scratch derivation, on a broken cluster
// partition, or on a broken event-stream invariant.
func checkedRun(t *testing.T, sc Scenario) metrics.Report {
	t.Helper()
	sc.Validate = true
	records, err := sc.Records()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(sc, records)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewInvariantChecker(sc.Nodes)
	e.SetEventSink(chk.Sink())
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if chk.HeldTotal() != 0 {
		t.Fatalf("%d nodes still held after every job completed", chk.HeldTotal())
	}
	return rep
}

// TestDifferentialReports is the differential between a validated and an
// unvalidated run of the same cell: Validate's per-pass oracle must only
// read. Both engines use the frozen stopwatch — decision latency is the one
// wall-clock value a frame carries — and step in lockstep; every 37th step
// their frames, and at the end their canonical reports, must be
// byte-identical. Frames catch what reports miss: a check that brought
// malleable progress up to the clock would change every later frame and no
// report. The cells are the clean fcfs grid, plus CUA&SPAA and CUP&SPAA on
// W2 and W5 under fcfs, sjf and wfp3, BackfillReserved off and on, clean and
// faulted.
func TestDifferentialReports(t *testing.T) {
	type cell struct {
		name string
		sc   Scenario
	}
	var cells []cell
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			cells = append(cells, cell{mech + "/" + mix, testScale(mech, mix)})
		}
	}
	for _, pol := range []string{"fcfs", "sjf", "wfp3"} {
		for _, bf := range []bool{false, true} {
			for _, mix := range []string{"W2", "W5"} {
				for _, faulted := range []bool{false, true} {
					for _, mech := range []string{"CUA&SPAA", "CUP&SPAA"} {
						if pol == "fcfs" && !bf && !faulted {
							continue // in the grid above
						}
						sc, name := testScale(mech, mix), fmt.Sprintf("%s/%s/%s/backfill-reserved=%v", pol, mech, mix, bf)
						if faulted {
							sc, name = faultScale(mech, mix), name+"/faults"
						}
						sc.Policy, sc.BackfillReserved = pol, bf
						cells = append(cells, cell{name, sc})
					}
				}
			}
		}
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkValidateReadsOnly(t, c.sc)
		})
	}
}

// checkValidateReadsOnly runs sc with and without Validate in lockstep (see
// TestDifferentialReports).
func checkValidateReadsOnly(t *testing.T, sc Scenario) {
	t.Helper()
	records, err := sc.Records()
	if err != nil {
		t.Fatal(err)
	}
	sc.Validate = false
	plain, err := newEngine(sc, records, simtime.Frozen)
	if err != nil {
		t.Fatal(err)
	}
	sc.Validate = true
	checked, err := newEngine(sc, records, simtime.Frozen)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; ; step++ {
		more, err := plain.Step()
		if err != nil {
			t.Fatal(err)
		}
		checkedMore, err := checked.Step()
		if err != nil {
			t.Fatalf("validated run, step %d: %v", step, err)
		}
		if more != checkedMore {
			t.Fatalf("step %d: unvalidated run continues=%v, validated %v", step, more, checkedMore)
		}
		if !more {
			break
		}
		if step%37 != 0 {
			continue
		}
		a, err := plain.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := checked.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d (t=%d): validated frame differs from the unvalidated one", step, plain.Now())
		}
	}
	a, err := ReportJSON(plain.Report())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReportJSON(checked.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("validated report differs\nunvalidated: %s\nvalidated:   %s", truncate(a), truncate(b))
	}
}

// TestDifferentialBackfillReserved runs BackfillReserved cells under the
// per-pass oracle: with squatting on, backfill planning runs through the
// reserved-headroom charge model (shared reserve, per-claim extras), so these
// cells pin exactly the accounting the backfill bugfixes changed. Mixes W2/W4
// carry the heaviest on-demand share, so reservations (and squatters) are
// actually exercised.
func TestDifferentialBackfillReserved(t *testing.T) {
	for _, mech := range []string{"baseline", "N&PAA", "CUA&SPAA", "CUP&PAA"} {
		for _, mix := range []string{"W2", "W4"} {
			sc := testScale(mech, mix)
			sc.BackfillReserved = true
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				checkedRun(t, sc)
			})
		}
	}
}

// TestDifferentialPolicies runs the other built-in queue orderings under the
// per-pass oracle, which the grid otherwise runs under fcfs only: sjf and ljf
// keep the queue sorted incrementally and backfill over the need index, wfp3
// re-sorts it every pass. Cells run with and without BackfillReserved.
func TestDifferentialPolicies(t *testing.T) {
	for _, pol := range []string{"sjf", "ljf", "wfp3"} {
		for _, mech := range []string{"baseline", "N&SPAA", "CUA&PAA", "CUP&SPAA"} {
			for _, mix := range []string{"W2", "W4"} {
				for _, bf := range []bool{false, true} {
					sc := testScale(mech, mix)
					sc.Policy = pol
					sc.BackfillReserved = bf
					t.Run(fmt.Sprintf("%s/%s/%s/backfill-reserved=%v", pol, mech, mix, bf), func(t *testing.T) {
						t.Parallel()
						checkedRun(t, sc)
					})
				}
			}
		}
	}
}

// TestDifferentialStreamed puts the ReleaseCompleted streaming mode under the
// oracle: for every mechanism × mix cell, a streamed run under Validate must
// emit the full-mode run's event stream, event for event. Streamed reports
// drop per-job data; the events compare directly.
func TestDifferentialStreamed(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				streamed := sc
				streamed.ReleaseCompleted = true
				streamed.Validate = true
				got, err := Events(streamed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Events(sc)
				if err != nil {
					t.Fatal(err)
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("event %d: streamed %+v, full %+v", i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("streamed run emitted %d events, full %d", len(got), len(want))
				}
			})
		}
	}
}

// TestDeterministicReplay pins run-to-run determinism: the same scenario
// executed twice yields byte-identical canonical reports. Hidden
// iteration-order dependence (map ranges feeding scheduling decisions) would
// break this.
func TestDeterministicReplay(t *testing.T) {
	for _, cell := range []Scenario{
		testScale("baseline", "W1"),
		testScale("CUA&SPAA", "W5"),
		testScale("CUP&PAA", "W4"),
	} {
		t.Run(cell.Mechanism+"/"+cell.Mix, func(t *testing.T) {
			t.Parallel()
			a, err := CanonicalRun(cell)
			if err != nil {
				t.Fatal(err)
			}
			b, err := CanonicalRun(cell)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("replay diverges\nfirst:  %s\nsecond: %s", truncate(a), truncate(b))
			}
		})
	}
}

// TestRunInvariants drives every grid cell under Validate — the per-pass
// oracle and the cluster partition check after each event (no double
// allocation, exact conservation of nodes across loans and returns at the
// resource-manager level) — with the event-stream InvariantChecker attached
// (monotone time, start/release pairing, global held-node conservation at
// the observable level).
func TestRunInvariants(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				checkedRun(t, sc)
			})
		}
	}
}

func truncate(b []byte) []byte {
	const n = 400
	if len(b) <= n {
		return b
	}
	return append(append([]byte{}, b[:n]...), "..."...)
}
