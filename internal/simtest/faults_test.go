package simtest

import (
	"bytes"
	"testing"
)

// faultScale is the fault-enabled grid scale: the clean testScale plus an
// aggressive fault process (6 h system MTBF, 2 h mean repair) so every cell
// sees dozens of failures, repairs shrinking capacity, and restarts.
func faultScale(mech, mix string) Scenario {
	sc := testScale(mech, mix)
	sc.FaultMTBF = 6 * 3600
	sc.FaultRepair = 2 * 3600
	return sc
}

// TestFaultDifferentialReports runs fault-enabled cells under the per-pass
// oracle: failures, repair windows, and the drain-free capacity accounting
// must keep every scheduler pass equal to the plan from scratch. (The clean
// grid runs in TestRunInvariants; this is the degraded-capacity
// counterpart.)
func TestFaultDifferentialReports(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, mix := range []string{"W2", "W5"} {
			sc := faultScale(mech, mix)
			t.Run(mech+"/"+mix, func(t *testing.T) {
				t.Parallel()
				checkedRun(t, sc)
			})
		}
	}
}

// TestInstantRepairDifferential covers the legacy instant-repair shortcut
// (MeanRepair zero) under the per-pass oracle.
func TestInstantRepairDifferential(t *testing.T) {
	for _, mech := range []string{"baseline", "CUA&SPAA"} {
		sc := faultScale(mech, "W5")
		sc.FaultRepair = 0
		t.Run(mech, func(t *testing.T) {
			t.Parallel()
			checkedRun(t, sc)
		})
	}
}

// TestFaultRunInvariants drives every mechanism with the injector enabled
// under Validate and the extended InvariantChecker: conservation against
// the time-varying in-service capacity and no allocation onto down nodes.
func TestFaultRunInvariants(t *testing.T) {
	for _, mech := range Mechanisms() {
		sc := faultScale(mech, "W5")
		t.Run(mech, func(t *testing.T) {
			t.Parallel()
			rep := checkedRun(t, sc)
			if rep.FailuresInjected == 0 {
				t.Fatal("no failures struck at a 6 h MTBF over a week")
			}
			if rep.DownNodeSeconds == 0 {
				t.Fatal("repair windows removed no capacity")
			}
		})
	}
}

// TestFaultReplayDeterminism pins run-to-run determinism of a fault-enabled
// cell: the failure timeline, victim choice, and repair draws must derive
// only from the scenario seed.
func TestFaultReplayDeterminism(t *testing.T) {
	sc := faultScale("CUA&SPAA", "W3")
	a, err := CanonicalRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("fault replay diverges\nfirst:  %s\nsecond: %s", truncate(a), truncate(b))
	}
}
