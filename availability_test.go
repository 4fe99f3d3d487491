package hybridsched

import (
	"strings"
	"testing"
)

// degradedRecords is a small trace for availability tests: a handful of
// rigid jobs that together need most of the system.
func degradedRecords(t *testing.T) []Record {
	t.Helper()
	recs, err := GenerateWorkload(WorkloadConfig{
		Seed: 3, Nodes: 256, Weeks: 1, Projects: 10, TargetLoad: 0.7,
		MinJobSize:  16,
		SizeBuckets: []int{16, 32, 64},
		SizeWeights: []float64{0.5, 0.3, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSessionWithDrainEmitsTypedEvents(t *testing.T) {
	var drains, downs, ups int
	var downNodes, upNodes int
	obs := ObserverFunc(func(ev Event) {
		switch ev.Type {
		case EventDrain, EventNodeDown, EventNodeUp:
			if ev.Job != -1 {
				t.Errorf("node event with job %d attached", ev.Job)
			}
		}
		switch ev.Type {
		case EventDrain:
			drains++
		case EventNodeDown:
			downs++
			downNodes += ev.Nodes
		case EventNodeUp:
			ups++
			upNodes += ev.Nodes
		}
	})
	sess, err := NewSession(
		WithNodes(256),
		WithMechanism("baseline"),
		WithValidate(true),
		WithDrain(3600, 6*3600, 64),
		WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range degradedRecords(t) {
		if err := sess.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if drains != 1 || downs == 0 || ups == 0 {
		t.Fatalf("node events drain=%d down=%d up=%d", drains, downs, ups)
	}
	if downNodes != upNodes {
		t.Fatalf("down/up node counts unbalanced: %d vs %d", downNodes, upNodes)
	}
	if rep.DownNodeSeconds == 0 {
		t.Fatal("drain removed no capacity from the report ledger")
	}
	snap := sess.Snapshot()
	if snap.DownNodes != 0 {
		t.Fatalf("%d nodes still down after the run", snap.DownNodes)
	}
}

func TestSessionWithFaults(t *testing.T) {
	sess, err := NewSession(
		WithNodes(256),
		WithMechanism("CUA&SPAA"),
		WithValidate(true),
		WithFaults(FaultConfig{MTBF: 4 * 3600, Seed: 11, Horizon: 4 * 7 * 24 * Hour, MeanRepair: 3600}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range degradedRecords(t) {
		if err := sess.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailuresInjected == 0 {
		t.Fatal("no failures struck at a 4 h MTBF over a week")
	}
	if rep.DownNodeSeconds == 0 {
		t.Fatal("repairs removed no capacity")
	}
}

func TestSessionFaultValidation(t *testing.T) {
	for _, cfg := range []FaultConfig{
		{MTBF: 0, Horizon: 1},
		{MTBF: 1, Horizon: 0},
		{MTBF: 1, Horizon: 1, MeanRepair: -1},
	} {
		if _, err := NewSession(WithFaults(cfg)); err == nil {
			t.Errorf("WithFaults(%+v) accepted", cfg)
		}
	}
	if _, err := NewSession(WithDrain(-10, 100, 4)); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Errorf("WithDrain in the past accepted (err %v)", err)
	}
	if _, err := NewSession(WithNodes(-1)); err == nil || !strings.Contains(err.Error(), "system size") {
		t.Errorf("WithNodes(-1) accepted (err %v)", err)
	}
}

func TestSweepFaultCells(t *testing.T) {
	wl := WorkloadConfig{
		Seed: 5, Nodes: 256, Weeks: 1, Projects: 10, TargetLoad: 0.6,
		MinJobSize:  16,
		SizeBuckets: []int{16, 32, 64},
		SizeWeights: []float64{0.5, 0.3, 0.2},
	}
	specs := []SweepSpec{
		{Label: "clean", Workload: wl, Sim: SimulationConfig{Nodes: 256, Mechanism: "baseline"}},
		{Label: "faulty", Workload: wl, Sim: SimulationConfig{Nodes: 256, Mechanism: "baseline"},
			FaultMTBF: 4 * 3600, FaultMeanRepair: 3600},
		{Label: "drained", Workload: wl, Sim: SimulationConfig{Nodes: 256, Mechanism: "baseline"},
			Drains: []DrainSpec{{Start: 3600, Duration: 12 * 3600, Nodes: 64}}},
	}
	rep, err := RunSweep(specs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, faulty, drained := rep.Results[0].Report, rep.Results[1].Report, rep.Results[2].Report
	if clean.FailuresInjected != 0 || clean.DownNodeSeconds != 0 {
		t.Fatalf("clean cell has availability telemetry: %+v", clean.FailuresInjected)
	}
	if faulty.FailuresInjected == 0 || faulty.DownNodeSeconds == 0 {
		t.Fatal("fault cell recorded no failures/downtime")
	}
	if drained.DownNodeSeconds == 0 {
		t.Fatal("drain cell recorded no downtime")
	}
	// The emitters must carry the telemetry (failures column non-zero for the
	// fault cell only).
	var buf strings.Builder
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines %d", len(lines))
	}
	if !strings.Contains(lines[0], "failures") || !strings.Contains(lines[0], "unavailable_frac") {
		t.Fatalf("csv header missing availability columns: %s", lines[0])
	}
}
