package hybridsched

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// canonicalJSON serializes a report with the wall-clock decision-latency
// fields zeroed, so byte comparison sees only deterministic measurements
// (the same normalization the sweep emitters apply).
func canonicalJSON(t *testing.T, rep Report) string {
	t.Helper()
	rep.DecisionCount = 0
	rep.MeanDecisionMs = 0
	rep.MaxDecisionMs = 0
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// equivWorkload is the small system the equivalence tests replay.
func equivWorkload(mix NoticeMix) WorkloadConfig {
	return WorkloadConfig{
		Seed: 11, Weeks: 1, Nodes: 512, Mix: mix,
		MinJobSize:  16,
		SizeBuckets: []int{16, 32, 64, 128},
		SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
	}
}

// TestSessionGoldenEquivalence: a Session with the whole trace pre-submitted
// and Run() must produce a Report byte-identical (via JSON, wall-clock
// fields excluded) to the RunSweep cell built from the same workload config,
// for every mechanism under every Table III notice mix. Both build their
// engine through the same recipe; the test compares the Submit path, which
// hands the engine one job at a time, with the primed path, where a cell
// hands sim.New every job up front.
func TestSessionGoldenEquivalence(t *testing.T) {
	mixes := []struct {
		name string
		mix  NoticeMix
	}{{"W1", W1}, {"W2", W2}, {"W3", W3}, {"W4", W4}, {"W5", W5}}
	var specs []SweepSpec
	for _, m := range mixes {
		for _, mech := range Mechanisms() {
			specs = append(specs, SweepSpec{
				Label:    m.name + "/" + mech,
				Workload: equivWorkload(m.mix),
				Sim:      SimulationConfig{Nodes: 512, Mechanism: mech},
			})
		}
	}
	sweep, err := RunSweep(specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		t.Run(sp.Label, func(t *testing.T) {
			records, err := GenerateWorkload(sp.Workload)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(WithNodes(512), WithMechanism(sp.Sim.Mechanism))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range records {
				if err := s.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if canonicalJSON(t, got) != canonicalJSON(t, sweep.Results[i].Report) {
				t.Errorf("session report differs from the sweep cell")
			}
		})
	}
}

// midRunTrace is a handcrafted trace whose event times never collide within
// one priority class, so pre-loaded and mid-run submission of the on-demand
// job dispatch identically.
func midRunTrace() []Record {
	return []Record{
		{ID: 1, Class: Rigid, Submit: 0, Size: 256, MinSize: 256, Work: 10000, Estimate: 12000, Setup: 60},
		{ID: 2, Class: Rigid, Submit: 500, Size: 256, MinSize: 256, Work: 8000, Estimate: 9000, Setup: 60},
		{ID: 3, Class: Rigid, Submit: 1000, Size: 128, MinSize: 128, Work: 20000, Estimate: 25000, Setup: 60},
		{ID: 4, Class: Malleable, Submit: 1500, Size: 128, MinSize: 32, Work: 15000, Estimate: 20000, Setup: 60},
		{ID: 5, Class: OnDemand, Submit: 7777, Size: 300, MinSize: 300, Work: 3000, Estimate: 4000, Setup: 30,
			Notice: AccurateNotice, NoticeTime: 5555, EstArrival: 7777},
	}
}

// TestSessionMidRunSubmit: injecting an on-demand job while the session runs
// (before its notice instant) must be indistinguishable from having loaded
// it with the initial trace.
func TestSessionMidRunSubmit(t *testing.T) {
	records := midRunTrace()
	for _, mech := range Mechanisms() {
		t.Run(mech, func(t *testing.T) {
			preloaded, err := Simulate(SimulationConfig{Nodes: 512, Mechanism: mech}, records)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(WithNodes(512), WithMechanism(mech))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range records[:4] {
				if err := s.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunUntil(5000); err != nil { // before the job-5 notice at 5555
				t.Fatal(err)
			}
			if now := s.Now(); now != 5000 {
				t.Fatalf("Now() = %d after RunUntil(5000)", now)
			}
			if err := s.Submit(records[4]); err != nil {
				t.Fatal(err)
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if canonicalJSON(t, got) != canonicalJSON(t, preloaded) {
				t.Errorf("mid-run submission diverged from pre-loaded trace")
			}
		})
	}
}

// TestSessionSubmitInThePast: once the clock has advanced, a record dated
// before Now must be rejected.
func TestSessionSubmitInThePast(t *testing.T) {
	s, err := NewSession(WithNodes(512))
	if err != nil {
		t.Fatal(err)
	}
	records := midRunTrace()
	for _, r := range records[:4] {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	late := records[4]
	late.Submit, late.NoticeTime, late.EstArrival = 100, 100, 100
	if err := s.Submit(late); err == nil {
		t.Fatal("expected error submitting a job dated before Now")
	}
	// Duplicate IDs are rejected too.
	if err := s.Submit(records[0]); err == nil {
		t.Fatal("expected duplicate-ID error")
	}
}

// noopScheduler is a custom Scheduler: Baseline's behaviour under a new name,
// registered through the public registry.
type noopScheduler struct{ Baseline }

func (noopScheduler) Name() string { return "test-noop" }

func TestRegisterSchedulerRunsEverywhere(t *testing.T) {
	// The registry is process-global and append-only; under -count=N the
	// name persists from the previous run.
	if err := RegisterScheduler("test-noop", func(SchedulerConfig) (Scheduler, error) {
		return noopScheduler{}, nil
	}); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	if err := RegisterScheduler("test-noop", func(SchedulerConfig) (Scheduler, error) {
		return noopScheduler{}, nil
	}); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if err := RegisterScheduler("baseline", nil); err == nil {
		t.Fatal("built-in collision must fail")
	}
	found := false
	for _, name := range SchedulerNames() {
		if name == "test-noop" {
			found = true
		}
	}
	if !found {
		t.Fatalf("test-noop missing from SchedulerNames() = %v", SchedulerNames())
	}

	records, err := GenerateWorkload(equivWorkload(W5))
	if err != nil {
		t.Fatal(err)
	}
	// Through Simulate: behaves exactly like the baseline it wraps.
	custom, err := Simulate(SimulationConfig{Nodes: 512, Mechanism: "test-noop"}, records)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Simulate(SimulationConfig{Nodes: 512, Mechanism: "baseline"}, records)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, custom) != canonicalJSON(t, baseline) {
		t.Error("custom baseline-wrapping scheduler diverged from baseline via Simulate")
	}

	// Through RunSweep: resolvable by name inside worker cells.
	wcfg := equivWorkload(W5)
	specs := []SweepSpec{
		{Label: "custom", Workload: wcfg, Sim: SimulationConfig{Nodes: 512, Mechanism: "test-noop"}},
		{Label: "baseline", Workload: wcfg, Sim: SimulationConfig{Nodes: 512, Mechanism: "baseline"}},
	}
	sweep, err := RunSweep(specs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, sweep.Results[0].Report) != canonicalJSON(t, sweep.Results[1].Report) {
		t.Error("custom scheduler diverged from baseline via RunSweep")
	}
}

// lifoPolicy is a custom queue ordering: latest submission first.
type lifoPolicy struct{}

func (lifoPolicy) Name() string { return "test-lifo" }
func (lifoPolicy) Less(a, b *Job, _ int64) bool {
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime > b.SubmitTime
	}
	return a.ID > b.ID
}

func TestRegisterPolicyRunsByName(t *testing.T) {
	if err := RegisterPolicy(lifoPolicy{}); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	if err := RegisterPolicy(lifoPolicy{}); err == nil {
		t.Fatal("duplicate policy registration must fail")
	}
	found := false
	for _, name := range PolicyNames() {
		if name == "test-lifo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("test-lifo missing from PolicyNames() = %v", PolicyNames())
	}
	records, err := GenerateWorkload(equivWorkload(W5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(SimulationConfig{Nodes: 512, Policy: "test-lifo"}, records)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(records) {
		t.Fatalf("lifo policy completed %d/%d jobs", rep.Jobs, len(records))
	}
}

// TestExplicitZeroCheckpointMult: the negative sentinel (and the Session
// option) disable defensive checkpointing, which the zero value of
// SimulationConfig could never express.
func TestExplicitZeroCheckpointMult(t *testing.T) {
	records, err := GenerateWorkload(equivWorkload(W5))
	if err != nil {
		t.Fatal(err)
	}
	withCkpt, err := Simulate(SimulationConfig{Nodes: 512}, records)
	if err != nil {
		t.Fatal(err)
	}
	if withCkpt.Breakdown.Ckpt <= 0 {
		t.Fatal("default run recorded no checkpoint overhead; test needs rigid jobs")
	}
	noCkpt, err := Simulate(SimulationConfig{Nodes: 512, CheckpointFreqMult: -1}, records)
	if err != nil {
		t.Fatal(err)
	}
	if noCkpt.Breakdown.Ckpt != 0 {
		t.Errorf("explicit-zero multiplier still checkpointed: %g", noCkpt.Breakdown.Ckpt)
	}

	s, err := NewSession(WithNodes(512), WithCheckpointFreqMult(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	viaOption, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, viaOption) != canonicalJSON(t, noCkpt) {
		t.Error("WithCheckpointFreqMult(0) differs from the -1 sentinel path")
	}

	// The explicit zero must survive the sweep path's double defaulting too.
	sweep, err := RunSweep([]SweepSpec{{
		Label:    "nockpt",
		Workload: equivWorkload(W5),
		Sim:      SimulationConfig{Nodes: 512, CheckpointFreqMult: -1},
	}}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Results[0].Report.Breakdown.Ckpt; got != 0 {
		t.Errorf("sweep cell with explicit-zero multiplier still checkpointed: %g", got)
	}
}

// TestExplicitZeroReleaseThreshold: a 0-second release threshold is
// expressible through both the sentinel and the option.
func TestExplicitZeroReleaseThreshold(t *testing.T) {
	records, err := GenerateWorkload(equivWorkload(W2))
	if err != nil {
		t.Fatal(err)
	}
	viaSentinel, err := Simulate(SimulationConfig{Nodes: 512, ReleaseThresholdSeconds: -1}, records)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(WithNodes(512), WithReleaseThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	viaOption, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, viaOption) != canonicalJSON(t, viaSentinel) {
		t.Error("WithReleaseThreshold(0) differs from the -1 sentinel path")
	}

	// The knob must actually bite: a zero-second hold schedules differently
	// from the 10-minute default on a noticed mix.
	viaDefault, err := Simulate(SimulationConfig{Nodes: 512}, records)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, viaDefault) == canonicalJSON(t, viaSentinel) {
		t.Error("explicit-zero threshold indistinguishable from the default; sentinel lost")
	}

	// And it must survive the sweep path's re-defaulting (the runner and
	// core each apply their own withDefaults).
	sweep, err := RunSweep([]SweepSpec{{
		Label:    "zerorelease",
		Workload: equivWorkload(W2),
		Sim:      SimulationConfig{Nodes: 512, ReleaseThresholdSeconds: -1},
	}}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, sweep.Results[0].Report) != canonicalJSON(t, viaSentinel) {
		t.Error("sweep cell with explicit-zero threshold diverged from Simulate")
	}
}

// recordedConfigs collects the SchedulerConfig of every "test-recorder"
// instance built. A package variable, since under -count=N the factory
// registered by the first run stays.
var (
	recordedMu      sync.Mutex
	recordedConfigs []SchedulerConfig
)

// TestFactoryGetsOneSchedulerConfig: a registered factory is handed the same
// SchedulerConfig for one SimulationConfig whether the engine is built by
// Simulate, NewSession or a RunSweep cell, the release threshold resolved
// (600 s by default, negative for an explicit zero).
func TestFactoryGetsOneSchedulerConfig(t *testing.T) {
	if err := RegisterScheduler("test-recorder", func(cfg SchedulerConfig) (Scheduler, error) {
		recordedMu.Lock()
		defer recordedMu.Unlock()
		recordedConfigs = append(recordedConfigs, cfg)
		return Baseline{}, nil
	}); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	cases := []struct {
		cfg  SimulationConfig
		want SchedulerConfig
	}{
		{SimulationConfig{Nodes: 128, Mechanism: "test-recorder"},
			SchedulerConfig{ReleaseThreshold: 600, DirectedReturn: true}},
		{SimulationConfig{Nodes: 128, Mechanism: "test-recorder", ReleaseThresholdSeconds: -1, NoDirectedReturn: true, BackfillReserved: true},
			SchedulerConfig{ReleaseThreshold: -1, BackfillReserved: true}},
	}
	for _, tc := range cases {
		recordedMu.Lock()
		recordedConfigs = nil
		recordedMu.Unlock()
		if _, err := Simulate(tc.cfg, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := NewSession(WithConfig(tc.cfg)); err != nil {
			t.Fatal(err)
		}
		if _, err := RunSweep([]SweepSpec{{Label: "rec", Source: "synthetic:seed=1,weeks=1,nodes=128", Sim: tc.cfg}}, SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		recordedMu.Lock()
		got := recordedConfigs
		recordedMu.Unlock()
		if len(got) != 3 || got[0] != tc.want || got[1] != tc.want || got[2] != tc.want {
			t.Errorf("%+v: Simulate, NewSession and RunSweep handed the factory %+v, want %+v each", tc.cfg, got, tc.want)
		}
	}
}

// TestSessionMaxSimTimeBoundsRunUntil: the WithMaxSimTime safety net must
// also stop pure clock advances, not just event dispatch.
func TestSessionMaxSimTimeBoundsRunUntil(t *testing.T) {
	s, err := NewSession(WithNodes(512), WithMaxSimTime(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(5000); err == nil {
		t.Fatal("RunUntil past MaxSimTime must fail")
	}
	if now := s.Now(); now > 1000 {
		t.Fatalf("clock ran to %d past the 1000 s bound", now)
	}
}

// TestSessionCloseSilencesObservers: after Close, neither observers nor
// channels see events, even though the session can keep running.
func TestSessionCloseSilencesObservers(t *testing.T) {
	var n int
	s, err := NewSession(WithNodes(512),
		WithObserver(ObserverFunc(func(Event) { n++ })))
	if err != nil {
		t.Fatal(err)
	}
	records := midRunTrace()
	for _, r := range records[:2] {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("observer saw %d events after Close", n)
	}
	if got := s.Report().Jobs; got != 2 {
		t.Fatalf("closed session still simulates: completed %d/2", got)
	}
}

// TestSessionSnapshotAndObserver drives a session step-wise and checks the
// live state and the synchronous event stream against each other.
func TestSessionSnapshotAndObserver(t *testing.T) {
	records, err := GenerateWorkload(equivWorkload(W5))
	if err != nil {
		t.Fatal(err)
	}
	var seen []Event
	s, err := NewSession(
		WithNodes(512),
		WithValidate(true),
		WithObserver(ObserverFunc(func(ev Event) { seen = append(seen, ev) })),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	pre := s.Snapshot()
	if pre.Submitted != len(records) || pre.Completed != 0 {
		t.Fatalf("pre-run snapshot: submitted %d completed %d", pre.Submitted, pre.Completed)
	}
	if pre.Nodes != 512 || pre.FreeNodes != 512 {
		t.Fatalf("pre-run snapshot: nodes %d free %d", pre.Nodes, pre.FreeNodes)
	}

	if err := s.RunUntil(36 * Hour); err != nil {
		t.Fatal(err)
	}
	mid := s.Snapshot()
	if mid.Now != 36*Hour {
		t.Fatalf("mid snapshot Now = %d", mid.Now)
	}
	if mid.FreeNodes+mid.BusyNodes+mid.ReservedNodes != mid.Nodes {
		t.Fatalf("node partition broken: %d+%d+%d != %d",
			mid.FreeNodes, mid.BusyNodes, mid.ReservedNodes, mid.Nodes)
	}
	if len(mid.Running) == 0 {
		t.Fatal("nothing running 36 hours into a one-week trace")
	}
	if mid.Metrics.Utilization <= 0 || mid.Metrics.Utilization > 1 {
		t.Fatalf("mid-run utilization %g", mid.Metrics.Utilization)
	}
	if mid.QueueDepth != len(mid.Queued) {
		t.Fatalf("QueueDepth %d != len(Queued) %d", mid.QueueDepth, len(mid.Queued))
	}

	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	post := s.Snapshot()
	if post.Completed != len(records) || rep.Jobs != len(records) {
		t.Fatalf("completed %d, report %d, want %d", post.Completed, rep.Jobs, len(records))
	}

	counts := map[EventType]int{}
	lastT := int64(-1)
	for _, ev := range seen {
		if ev.Time < lastT {
			t.Fatalf("event stream went backwards: %d after %d", ev.Time, lastT)
		}
		lastT = ev.Time
		counts[ev.Type]++
	}
	if counts[EventArrival] != len(records) {
		t.Errorf("arrival events %d, want %d", counts[EventArrival], len(records))
	}
	if counts[EventEnd] != len(records) {
		t.Errorf("end events %d, want %d", counts[EventEnd], len(records))
	}
	if counts[EventStart] < counts[EventEnd] {
		t.Errorf("starts %d < ends %d", counts[EventStart], counts[EventEnd])
	}
	// CUA&SPAA on a busy one-week trace must exercise notices and at least
	// one preemption or shrink; a silent stream means the sink is unwired.
	if counts[EventNotice] == 0 {
		t.Error("no notice events in a W5 trace")
	}
	if counts[EventPreempt]+counts[EventShrink]+counts[EventWarning] == 0 {
		t.Error("no preempt/shrink/warning events under CUA&SPAA")
	}
}

// TestSessionEventsChannel: the channel adapter delivers the same stream and
// closes when the session finishes.
func TestSessionEventsChannel(t *testing.T) {
	records := midRunTrace()
	s, err := NewSession(WithNodes(512))
	if err != nil {
		t.Fatal(err)
	}
	ch := s.Events()
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range ch {
		n++
	}
	if n == 0 {
		t.Fatal("no events on the channel")
	}
	if s.DroppedEvents() != 0 {
		t.Fatalf("dropped %d events on a tiny trace", s.DroppedEvents())
	}
	// A channel requested after Close comes back closed, not nil.
	if _, open := <-s.Events(); open {
		t.Fatal("post-Close Events() channel must be closed")
	}
}

// TestSessionStepGranularity: Step advances exactly one event at a time and
// reports completion.
func TestSessionStepGranularity(t *testing.T) {
	s, err := NewSession(WithNodes(512))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, r := range midRunTrace() {
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
		if steps > 1_000_000 {
			t.Fatal("runaway session")
		}
	}
	if got := s.Report(); got.Jobs != 5 {
		t.Fatalf("stepped run completed %d/5 jobs", got.Jobs)
	}
	// Drained and complete: further steps are no-ops, not errors.
	if more, err := s.Step(); more || err != nil {
		t.Fatalf("Step after completion = (%v, %v)", more, err)
	}
	// The session stays live: a later submission resumes it.
	late := Record{ID: 99, Class: Rigid, Submit: s.Now() + 100, Size: 64, MinSize: 64,
		Work: 500, Estimate: 600, Setup: 10}
	if err := s.Submit(late); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 6 {
		t.Fatalf("resumed run completed %d/6 jobs", rep.Jobs)
	}
}

// holdScheduler manufactures the mutual-starvation state breakHoldDeadlock
// exists to dissolve: when job 1 completes it reserves half the system for
// each of the two queued 100-node jobs, so neither can ever start and the
// event queue drains with work outstanding.
type holdScheduler struct {
	Baseline
	e *Engine
}

func (h *holdScheduler) Name() string     { return "test-hold" }
func (h *holdScheduler) Attach(e *Engine) { h.e = e }
func (h *holdScheduler) OnJobCompleted(j *Job, _ *NodeSet) {
	if j.ID == 1 {
		h.e.Cluster().Reserve(2, 50)
		h.e.Cluster().Reserve(3, 50)
	}
}

// TestSessionRunUntilBreaksHoldDeadlock: RunUntil must route a drained
// event queue with incomplete jobs through the engine's stall handling
// (dissolving reservation deadlocks) instead of silently advancing the
// clock past a wedged schedule.
func TestSessionRunUntilBreaksHoldDeadlock(t *testing.T) {
	s, err := NewSession(WithNodes(100), WithScheduler(&holdScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	for id, submit := range map[int]int64{1: 0, 2: 10, 3: 20} {
		if err := s.Submit(Record{ID: id, Class: Rigid, Submit: submit,
			Size: 100, MinSize: 100, Work: 1000, Estimate: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	// The deadlock forms at t=1000; RunUntil must dissolve it in passing.
	if err := s.RunUntil(2500); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Completed; got < 2 {
		t.Fatalf("deadlock not dissolved: %d jobs completed by t=2500", got)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 3 {
		t.Fatalf("completed %d/3 jobs", rep.Jobs)
	}
}

// TestSessionUnknownNames mirrors the legacy Simulate error behaviour.
func TestSessionUnknownNames(t *testing.T) {
	if _, err := NewSession(WithMechanism("nope")); err == nil {
		t.Fatal("expected unknown-mechanism error")
	}
	if _, err := NewSession(WithPolicy("nope")); err == nil {
		t.Fatal("expected unknown-policy error")
	}
}

// TestSubmitNormalizesZeroMinSize: hand-constructed fixed-size records that
// leave MinSize at its zero value (which legacy Simulate accepted and the
// simulator ignores for these classes) must keep working.
func TestSubmitNormalizesZeroMinSize(t *testing.T) {
	records := []Record{
		{ID: 1, Class: Rigid, Submit: 0, Size: 4, Work: 100, Estimate: 100},
		{ID: 2, Class: OnDemand, Submit: 10, Size: 4, Work: 100, Estimate: 100},
		// A stale nonzero MinSize on a fixed-size job is ignored too.
		{ID: 3, Class: Rigid, Submit: 20, Size: 32, MinSize: 16, Work: 100, Estimate: 100},
	}
	rep, err := Simulate(SimulationConfig{Nodes: 512}, records)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 3 {
		t.Fatalf("completed %d/3", rep.Jobs)
	}
	// Malleable jobs genuinely need a minimum size; those still fail fast.
	bad := []Record{{ID: 3, Class: Malleable, Submit: 0, Size: 4, Work: 100, Estimate: 100}}
	if _, err := Simulate(SimulationConfig{Nodes: 512}, bad); err == nil {
		t.Fatal("expected error for malleable record without MinSize")
	}
}

// TestSimulateStillBatch ensures the wrapper keeps the one-shot contract on
// the error paths (bad records fail fast, before any stepping).
func TestSimulateStillBatch(t *testing.T) {
	bad := []Record{{ID: 1, Class: Rigid, Submit: 0, Size: 0, MinSize: 0, Work: 1, Estimate: 1}}
	if _, err := Simulate(SimulationConfig{Nodes: 512}, bad); err == nil {
		t.Fatal("expected validation error for size-0 record")
	}
	huge := []Record{{ID: 1, Class: Rigid, Submit: 0, Size: 4096, MinSize: 4096, Work: 1, Estimate: 1}}
	if _, err := Simulate(SimulationConfig{Nodes: 512}, huge); err == nil {
		t.Fatal("expected size-exceeds-system error")
	}
}
