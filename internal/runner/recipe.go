package runner

import (
	"fmt"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/core"
	"hybridsched/internal/faults"
	"hybridsched/internal/job"
	"hybridsched/internal/registry"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/snapshot"
)

// Recipe is the named configuration every engine is built from: sessions,
// sweep cells and schedd all build through Build, and a session frame
// stores the recipe through EncodeSession. Fields up to Faults are in the
// order of the session envelope.
type Recipe struct {
	Nodes     int
	Mechanism string // a registry scheduler name
	Policy    string // a registry policy name
	// MTBF and CkptFreqMult drive each rigid job's Daly checkpoint plan;
	// once WithDefaults has run, a multiplier of 0 means no checkpoints.
	MTBF         float64
	CkptFreqMult float64
	// ReleaseThreshold stays as given: SchedulerConfig resolves it.
	BackfillReserved bool
	NoDirectedReturn bool
	ReleaseThreshold int64
	Validate         bool
	MaxSimTime       int64
	Faults           *faults.Config // nil: no fault injection
	// Drains are not in the envelope: an engine frame carries its windows.
	Drains []DrainSpec
	// Scheduler, when set, replaces Mechanism; such a recipe has no frame.
	Scheduler sim.Mechanism
}

// WithDefaults fills the paper's system into zero fields: Theta's 4,392
// nodes, CUA&SPAA, FCFS, a 24 h MTBF and the Daly-optimal interval. A
// negative multiplier is an explicit zero. It resolves the multiplier, so
// it runs once per recipe: never on one decoded from a frame.
func (r Recipe) WithDefaults() Recipe {
	if r.Nodes == 0 {
		r.Nodes = 4392
	}
	if r.Mechanism == "" {
		r.Mechanism = "CUA&SPAA"
	}
	if r.Policy == "" {
		r.Policy = "fcfs"
	}
	if r.MTBF == 0 {
		r.MTBF = 24 * float64(simtime.Hour)
	}
	if r.CkptFreqMult == 0 {
		r.CkptFreqMult = 1
	} else if r.CkptFreqMult < 0 {
		r.CkptFreqMult = 0
	}
	return r
}

// SchedulerConfig is what a scheduler factory receives, the same on every
// path: a release threshold of 0 takes the core default, and an explicit
// zero stays negative, as core reads it.
func (r Recipe) SchedulerConfig() registry.SchedulerConfig {
	th := r.ReleaseThreshold
	if th == 0 {
		th = core.DefaultConfig().ReleaseThreshold
	}
	return registry.SchedulerConfig{
		ReleaseThreshold: th,
		DirectedReturn:   !r.NoDirectedReturn,
		BackfillReserved: r.BackfillReserved,
	}
}

// Plan is a job's checkpoint plan under r.
func (r Recipe) Plan(size int) checkpoint.Plan {
	return checkpoint.NewPlan(size, r.MTBF, r.CkptFreqMult)
}

// maxNodes bounds the system size, so a corrupted or hostile frame cannot
// demand a multi-terabyte cluster; real machines are far below it.
const maxNodes = 1 << 24

// Build makes the engine: it resolves the scheduler and the policy, wraps
// the scheduler in the fault injector, loads jobs and schedules the drains.
// A size out of range, bad names and bad fault parameters are errors.
func (r Recipe) Build(jobs []*job.Job) (*sim.Engine, error) {
	if r.Nodes < 1 || r.Nodes > maxNodes {
		return nil, fmt.Errorf("system size %d is outside 1..%d", r.Nodes, maxNodes)
	}
	mech := r.Scheduler
	if mech == nil {
		var err error
		if mech, err = registry.NewScheduler(r.Mechanism, r.SchedulerConfig()); err != nil {
			return nil, err
		}
	}
	ord := registry.PolicyByName(r.Policy)
	if ord == nil {
		return nil, fmt.Errorf("unknown policy %q (valid: %v)", r.Policy, registry.PolicyNames())
	}
	if fc := r.Faults; fc != nil {
		if err := fc.Check(); err != nil {
			return nil, err
		}
		mech = faults.Wrap(mech, *fc)
	}
	e, err := sim.New(sim.Config{
		Nodes:            r.Nodes,
		Policy:           ord,
		BackfillReserved: r.BackfillReserved,
		Validate:         r.Validate,
		MaxSimTime:       r.MaxSimTime,
	}, jobs, mech)
	if err != nil {
		return nil, err
	}
	for _, d := range r.Drains {
		if err := e.ScheduleDrain(d.Start, d.Duration, d.Nodes); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// EncodeSession is the payload of a session frame: the recipe field by
// field, then the engine frame. Faults go without RepairTime, since the
// engine frame holds every pending failure's drawn repair time.
func (r Recipe) EncodeSession(engine []byte) []byte {
	var enc snapshot.Enc
	enc.Int(r.Nodes)
	enc.String(r.Mechanism)
	enc.String(r.Policy)
	enc.F64(r.MTBF)
	enc.F64(r.CkptFreqMult)
	enc.Bool(r.BackfillReserved)
	enc.Bool(r.NoDirectedReturn)
	enc.I64(r.ReleaseThreshold)
	enc.Bool(r.Validate)
	enc.I64(r.MaxSimTime)
	enc.Bool(r.Faults != nil)
	if fc := r.Faults; fc != nil {
		enc.F64(fc.MTBF)
		enc.I64(fc.Seed)
		enc.I64(fc.Horizon)
		enc.F64(fc.MeanRepair)
	}
	enc.Blob(engine)
	return enc.Bytes()
}

// DecodeSession reads what EncodeSession wrote: the recipe, ready to build,
// and the engine frame.
func DecodeSession(payload []byte) (Recipe, []byte, error) {
	d := snapshot.NewDec(payload)
	r := Recipe{
		Nodes:            d.Int(),
		Mechanism:        d.String(),
		Policy:           d.String(),
		MTBF:             d.F64(),
		CkptFreqMult:     d.F64(),
		BackfillReserved: d.Bool(),
		NoDirectedReturn: d.Bool(),
		ReleaseThreshold: d.I64(),
		Validate:         d.Bool(),
		MaxSimTime:       d.I64(),
	}
	if d.Bool() {
		r.Faults = &faults.Config{MTBF: d.F64(), Seed: d.I64(), Horizon: d.I64(), MeanRepair: d.F64()}
	}
	engine := d.Blob()
	if err := d.Done(); err != nil {
		return Recipe{}, nil, err
	}
	return r, engine, nil
}
