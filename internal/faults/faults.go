// Package faults injects node failures into a simulation, exercising the
// checkpoint/restart path that motivates Daly-optimal checkpointing in the
// paper (§IV-B): a failure interrupts the job holding the failed node —
// rigid jobs fall back to their last checkpoint, malleable jobs lose only
// their setup (completed tasks are durable), on-demand jobs are assumed to
// rerun from scratch.
//
// Wrap any sim.Mechanism and hand the result to the engine: the wrapper's
// Attach schedules the whole failure timeline as engine node-failure events
// (sim.Engine.ScheduleNodeFailure), and every other callback is the wrapped
// mechanism's. The failure semantics live in the engine's availability model
// (sim.Engine.FailNode and the cluster's down pool): each failure strikes one
// uniformly random node of the system, and with Config.MeanRepair set the
// node leaves service for a drawn repair time, shrinking the capacity every
// scheduler pass plans against until the engine-level repair event restores
// it. With MeanRepair zero the injector keeps the instant-repair shortcut —
// failed nodes rejoin the free pool immediately and the cluster never
// shrinks — which DESIGN.md documents as an explicit simplification. Note
// that victim selection also changed with the availability rewrite: the old
// decorator always struck a running job (weighted by its node count), while
// a uniform node strike misses whenever it lands on a free or reserved node,
// so even MeanRepair=0 results are not numerically comparable with
// pre-availability releases.
//
// The failure timeline is an exponential inter-arrival process drawn at
// attach time, victims and repair times included (so runs stay
// deterministic, the event queue stays finite, and an engine snapshot
// captures every pending failure with its repair time).
// Arrival instants accumulate in float64 and are rounded once per event:
// truncating each draw independently — the pre-availability behavior —
// floors every inter-arrival gap, which collapses sub-second draws to zero
// (duplicate same-instant failures) and inflates the effective rate by up to
// a second per failure, a large systematic bias at small MTBFs.
package faults

import (
	"fmt"
	"math"

	"hybridsched/internal/sim"
	"hybridsched/internal/snapshot"
	"hybridsched/internal/stats"
)

// Config parameterizes the injector.
type Config struct {
	// MTBF is the system mean time between failures, in seconds.
	MTBF float64
	// Seed drives the failure timeline, victim choice, and repair draws.
	Seed int64
	// Horizon bounds the pre-drawn failure timeline, in seconds of virtual
	// time from the first event. Failures past the horizon never fire.
	Horizon int64
	// MeanRepair is the mean node repair time in seconds. When positive,
	// each failed node leaves service for a repair time drawn from RepairTime
	// (exponential with this mean by default, clamped to at least 1 s). Zero
	// keeps the legacy instant-repair shortcut: the victim job is interrupted
	// but capacity never shrinks.
	MeanRepair float64
	// RepairTime overrides the repair-time draw (consulted only when
	// MeanRepair is positive): it maps one uniform variate u in [0,1) —
	// drawn from the injector's seeded stream, so runs stay deterministic —
	// to a repair time in seconds (an inverse CDF; ignore u for a fixed
	// repair time). It is called at attach time, once per scheduled failure
	// in firing order. The default draws Exponential(MeanRepair).
	RepairTime func(u float64) float64
}

// Injector wraps a mechanism with fault injection. It satisfies
// sim.Mechanism: every callback but Attach and Name is the wrapped
// mechanism's own. Attach lays the whole failure timeline out as engine
// node-failure events, so the injector itself holds no run state.
type Injector struct {
	sim.Mechanism
	//schedlint:snapfield static configuration, replayed through Wrap on restore; drawn failures are engine events
	cfg Config
}

// Check reports what makes cfg unusable: MTBF and Horizon must be positive,
// and MeanRepair must be non-negative.
func (cfg Config) Check() error {
	switch {
	case cfg.MTBF <= 0:
		return fmt.Errorf("faults: MTBF must be positive, got %g", cfg.MTBF)
	case cfg.Horizon <= 0:
		return fmt.Errorf("faults: Horizon must be positive, got %d", cfg.Horizon)
	case cfg.MeanRepair < 0:
		return fmt.Errorf("faults: MeanRepair must be non-negative, got %g", cfg.MeanRepair)
	}
	return nil
}

// Wrap decorates inner with fault injection under cfg. It panics on a cfg
// that Check refuses.
func Wrap(inner sim.Mechanism, cfg Config) *Injector {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	return &Injector{Mechanism: inner, cfg: cfg}
}

// timeline draws the failure instants of an exponential process with the
// given mean inter-arrival, as offsets in [0, horizon]. The running sum
// accumulates in float64 and each event instant is rounded once, so the mean
// spacing matches the MTBF instead of being floored per draw.
func timeline(rng *stats.RNG, mtbf float64, horizon int64) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64(mtbf)
		it := int64(math.Round(t))
		if it > horizon {
			return out
		}
		out = append(out, it)
	}
}

// Attach attaches the wrapped mechanism, then draws the failure timeline
// within the horizon and schedules every failure with
// Engine.ScheduleNodeFailure. The seeded stream yields all instants first,
// then each failure's node and repair time in firing order. Each failure
// strikes one uniformly random node of the system, so a running job's strike
// probability is proportional to its allocation.
func (i *Injector) Attach(e *sim.Engine) {
	i.Mechanism.Attach(e)
	rng := stats.NewRNG(i.cfg.Seed)
	for _, off := range timeline(rng, i.cfg.MTBF, i.cfg.Horizon) {
		node := int(rng.UniformInt64(0, int64(e.Nodes())-1))
		// The node is drawn in range, so scheduling cannot fail.
		_ = e.ScheduleNodeFailure(e.Now()+off, node, i.repairTime(rng))
	}
}

// repairTime draws one failure's repair delay in whole seconds (at least 1),
// or 0 for instant repair when MeanRepair is zero.
func (i *Injector) repairTime(rng *stats.RNG) int64 {
	if i.cfg.MeanRepair <= 0 {
		return 0
	}
	var d float64
	if i.cfg.RepairTime != nil {
		d = i.cfg.RepairTime(rng.Float64())
	} else {
		d = rng.ExpFloat64(i.cfg.MeanRepair)
	}
	return max(int64(math.Round(d)), 1)
}

// Name reports the wrapped mechanism plus the injection marker.
func (i *Injector) Name() string { return i.Mechanism.Name() + "+faults" }

// snapshotter returns m's snapshot extension, or an error naming m.
func snapshotter(m sim.Mechanism) (sim.SnapshotMechanism, error) {
	sm, ok := m.(sim.SnapshotMechanism)
	if !ok {
		return nil, fmt.Errorf("faults: wrapped mechanism %q does not support snapshots", m.Name())
	}
	return sm, nil
}

// EncodeSnapshotState hands to the wrapped mechanism: pending failures are
// engine events, captured with the engine's queue.
func (i *Injector) EncodeSnapshotState(e *snapshot.Enc) error {
	sm, err := snapshotter(i.Mechanism)
	if err != nil {
		return err
	}
	return sm.EncodeSnapshotState(e)
}

// DecodeSnapshotState hands to the wrapped mechanism.
func (i *Injector) DecodeSnapshotState(d *snapshot.Dec, rc *sim.RestoreContext) error {
	sm, err := snapshotter(i.Mechanism)
	if err != nil {
		return err
	}
	return sm.DecodeSnapshotState(d, rc)
}

// EncodeTimerPayload hands to the wrapped mechanism, which owns every timer.
func (i *Injector) EncodeTimerPayload(e *snapshot.Enc, payload any) error {
	sm, err := snapshotter(i.Mechanism)
	if err != nil {
		return err
	}
	return sm.EncodeTimerPayload(e, payload)
}

// DecodeTimerPayload hands to the wrapped mechanism.
func (i *Injector) DecodeTimerPayload(d *snapshot.Dec) (any, error) {
	sm, err := snapshotter(i.Mechanism)
	if err != nil {
		return nil, err
	}
	return sm.DecodeTimerPayload(d)
}
