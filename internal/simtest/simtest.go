// Package simtest is the simulation property-test harness: it builds
// engine scenarios over the full mechanism × workload grid of the paper's
// evaluation and checks runs of them. Its suites run engines under
// sim.Config.Validate, which holds every scheduler pass of the incremental
// engine to a plan computed from scratch, and assert structural invariants —
// no node double-allocation, conservation of nodes across loans and returns,
// monotone virtual time — over the typed event stream of a run. Further
// suites pin replay determinism, byte-identical snapshot/restore, and that
// validation itself changes no output.
//
// The harness exists so hot-path refactors of internal/sim stay safe: any
// divergence between the allocation-lean structures and the plan they must
// produce fails the run at the pass where it happens, and a changed outcome
// shows up as a report mismatch or an invariant violation, not as a silently
// different experiment result.
package simtest

import (
	"encoding/json"
	"fmt"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/faults"
	"hybridsched/internal/metrics"
	"hybridsched/internal/registry"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// Mechanisms returns the seven schedulers of the paper's evaluation: the
// FCFS/EASY baseline plus the six hybrid mechanisms ({N,CUA,CUP} × {PAA,SPAA}).
func Mechanisms() []string {
	return []string{"baseline", "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA"}
}

// Mixes returns the five Table III advance-notice mixes.
func Mixes() []string { return []string{"W1", "W2", "W3", "W4", "W5"} }

// Scenario is one cell of the engine test/benchmark grid: a scheduler, a
// Table III notice mix, the system/trace scale, and (optionally) a fault
// process exercising the availability model.
type Scenario struct {
	Mechanism string // one of Mechanisms()
	Mix       string // one of Mixes()
	Seed      int64
	Nodes     int // system size; also scales the generated workload
	Weeks     int
	Validate  bool // check the cluster partition and every scheduler pass (see sim.Config.Validate)

	// Policy names the waiting-queue ordering ("" = fcfs; see
	// registry.PolicyByName). sjf and ljf keep the queue sorted
	// incrementally; wfp3 re-sorts it every pass.
	Policy string

	// ReleaseCompleted runs the engine in its streaming mode, which forgets
	// each job at completion; reports then carry no per-job data, so such
	// runs compare by their event streams (see Events).
	ReleaseCompleted bool

	// BackfillReserved lets backfill candidates squat on nodes reserved for
	// pending on-demand jobs (paper §III-B.1). It routes the planner through
	// the reserved-headroom accounting, so validated cells with it on pin the
	// shared-reserve charge model against the from-scratch plan.
	BackfillReserved bool

	// FaultMTBF, when positive, wraps the mechanism in the fault injector at
	// this system MTBF (seconds). FaultRepair is the mean node repair time
	// (0 = the legacy instant-repair shortcut). The failure timeline derives
	// from Seed, so a scenario remains fully deterministic.
	FaultMTBF   float64
	FaultRepair float64
}

// Records generates the scenario's trace; the same scenario always yields the
// same records.
func (sc Scenario) Records() ([]trace.Record, error) {
	mix, err := workload.MixByName(sc.Mix)
	if err != nil {
		return nil, err
	}
	return workload.Generate(workload.Config{
		Seed: sc.Seed, Nodes: sc.Nodes, Weeks: sc.Weeks, Mix: mix,
	})
}

// NewEngine materializes records (fresh jobs — job state is consumed by a
// run) and builds an engine with a fresh mechanism instance, using the
// paper-default scheduler configuration (directed returns on, Daly-optimal
// checkpointing at 24 h MTBF). With FaultMTBF set the mechanism is wrapped
// in the fault injector, so the availability model is exercised end to end.
func NewEngine(sc Scenario, records []trace.Record) (*sim.Engine, error) {
	return newEngine(sc, records, nil)
}

// newEngine is NewEngine with the engine's decision-latency stopwatch (nil:
// the wall clock).
func newEngine(sc Scenario, records []trace.Record, sw simtime.Stopwatch) (*sim.Engine, error) {
	jobs := trace.Materialize(records, func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, 24*3600, 1)
	})
	mech, err := registry.NewScheduler(sc.Mechanism, registry.SchedulerConfig{
		DirectedReturn:   true,
		BackfillReserved: sc.BackfillReserved,
	})
	if err != nil {
		return nil, err
	}
	if sc.FaultMTBF > 0 {
		mech = faults.Wrap(mech, faults.Config{
			MTBF:       sc.FaultMTBF,
			Seed:       sc.Seed,
			Horizon:    int64(sc.Weeks+4) * simtime.Week,
			MeanRepair: sc.FaultRepair,
		})
	}
	ord := registry.PolicyByName(sc.Policy)
	if ord == nil {
		return nil, fmt.Errorf("simtest: unknown policy %q", sc.Policy)
	}
	return sim.New(sim.Config{
		Nodes:            sc.Nodes,
		Policy:           ord,
		Validate:         sc.Validate,
		BackfillReserved: sc.BackfillReserved,
		ReleaseCompleted: sc.ReleaseCompleted,
		Stopwatch:        sw,
	}, jobs, mech)
}

// Run generates, builds, and runs the scenario to completion.
func Run(sc Scenario) (metrics.Report, error) {
	records, err := sc.Records()
	if err != nil {
		return metrics.Report{}, err
	}
	e, err := NewEngine(sc, records)
	if err != nil {
		return metrics.Report{}, err
	}
	return e.Run()
}

// Events runs the scenario to completion and returns its typed event
// stream, in dispatch order.
func Events(sc Scenario) ([]sim.Event, error) {
	records, err := sc.Records()
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(sc, records)
	if err != nil {
		return nil, err
	}
	var evs []sim.Event
	e.SetEventSink(func(ev sim.Event) { evs = append(evs, ev) })
	if _, err := e.Run(); err != nil {
		return nil, fmt.Errorf("simtest: %s/%s: %w", sc.Mechanism, sc.Mix, err)
	}
	return evs, nil
}

// ReportJSON canonicalizes a report for byte-level comparison: the two
// wall-clock decision-latency fields — the only nondeterministic content of a
// report — are zeroed (their count stays, it is virtual-time deterministic),
// and the rest marshals as-is.
func ReportJSON(r metrics.Report) ([]byte, error) {
	r.MeanDecisionMs, r.MaxDecisionMs = 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("simtest: marshal report: %w", err)
	}
	return b, nil
}

// CanonicalRun runs the scenario to completion and returns the canonical
// report encoding — the byte string every equivalence suite (replay,
// snapshot/restore, validated against unvalidated) compares against.
func CanonicalRun(sc Scenario) ([]byte, error) {
	rep, err := Run(sc)
	if err != nil {
		return nil, fmt.Errorf("simtest: %s/%s: %w", sc.Mechanism, sc.Mix, err)
	}
	return ReportJSON(rep)
}
