package simtest

import (
	"bytes"
	"fmt"
	"testing"
)

// testScale is the grid scale the harness tests run at: the full 7-mechanism
// × W1..W5 grid on a 1024-node system over one simulated week (a few hundred
// jobs and a few thousand events per cell) — the same scale cmd/benchengine
// measures.
func testScale(mech, mix string) Scenario {
	return Scenario{Mechanism: mech, Mix: mix, Seed: 1, Nodes: 1024, Weeks: 1}
}

// TestDifferentialReports is the differential checker: for every mechanism ×
// mix cell, the optimized engine and the retained naive reference path must
// produce byte-identical canonical reports. Any hot-path refactor that
// changes scheduling outcomes — a queue ordered differently, a running view
// assembled in another order, a planner scratch bug — fails here.
func TestDifferentialReports(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				opt, ref, err := Differential(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(opt, ref) {
					t.Fatalf("optimized and reference reports diverge\noptimized: %s\nreference: %s",
						truncate(opt), truncate(ref))
				}
			})
		}
	}
}

// TestDifferentialBackfillReserved adds BackfillReserved cells to the
// differential check: with squatting on, backfill planning runs through the
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
				opt, ref, err := Differential(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(opt, ref) {
					t.Fatalf("optimized and reference reports diverge with BackfillReserved\noptimized: %s\nreference: %s",
						truncate(opt), truncate(ref))
				}
			})
		}
	}
}

// TestDifferentialPolicies adds the other built-in queue orderings to the
// differential check, which otherwise runs every cell under fcfs: sjf and
// ljf keep the queue sorted incrementally and backfill over the need index,
// wfp3 re-sorts it every pass. Cells run with and without BackfillReserved.
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
						opt, ref, err := Differential(sc)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(opt, ref) {
							t.Fatalf("optimized and reference reports diverge\noptimized: %s\nreference: %s",
								truncate(opt), truncate(ref))
						}
					})
				}
			}
		}
	}
}

// TestDifferentialStreamed puts the ReleaseCompleted streaming mode under the
// oracle: for every mechanism × mix cell, a streamed run on the optimized
// path must emit the reference path's event stream, event for event.
// Streamed reports drop per-job data; the events compare directly.
func TestDifferentialStreamed(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				streamed, ref := sc, sc
				streamed.ReleaseCompleted = true
				ref.Reference = true
				got, err := Events(streamed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Events(ref)
				if err != nil {
					t.Fatal(err)
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("event %d: streamed %+v, reference %+v", i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("streamed run emitted %d events, reference %d", len(got), len(want))
				}
			})
		}
	}
}

// TestDeterministicReplay pins run-to-run determinism of the optimized path:
// the same scenario executed twice yields byte-identical canonical reports.
// Hidden iteration-order dependence (map ranges feeding scheduling decisions)
// would break this.
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

// TestRunInvariants drives every grid cell with the cluster partition check
// enabled after each event (no double allocation, exact conservation of
// nodes across loans and returns at the resource-manager level) and the
// event-stream InvariantChecker attached (monotone time, start/release
// pairing, global held-node conservation at the observable level).
func TestRunInvariants(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range Mixes() {
			sc := testScale(mech, mix)
			sc.Validate = true
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
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
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if err := chk.Err(); err != nil {
					t.Fatal(err)
				}
				if chk.HeldTotal() != 0 {
					t.Fatalf("%d nodes still held after every job completed", chk.HeldTotal())
				}
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
