// Package registry resolves scheduling mechanisms and queue-ordering
// policies by name, combining the built-ins (the paper's six mechanisms, the
// FCFS/EASY baseline, and the fcfs/sjf/ljf/wfp3 orderings) with extensions
// registered at runtime. It is the single name-resolution point shared by
// the public facade, the sweep runner, and the CLIs, so a scheduler or
// policy registered once participates everywhere a name is accepted.
//
// The registry is safe for concurrent use. Registration is append-only:
// names cannot be overwritten or shadow a built-in, which keeps every
// resolvable name stable for the lifetime of the process (sweep determinism
// depends on it).
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hybridsched/internal/core"
	"hybridsched/internal/policy"
	"hybridsched/internal/sim"
)

// SchedulerConfig carries the system knobs a scheduler factory may honor.
// Built-in mechanisms map it onto core.Config; custom factories are free to
// ignore any of it.
type SchedulerConfig struct {
	// ReleaseThreshold is how long reserved nodes are held for a no-show
	// on-demand job past its estimated arrival, in seconds. Zero means the
	// paper default (600 s); negative means an explicit zero. Sessions,
	// sweeps and schedd pass it resolved: 600 unless set.
	ReleaseThreshold int64
	// DirectedReturn enables the return-to-lender rule (paper §III-B.3).
	DirectedReturn bool
	// BackfillReserved lets backfill jobs squat on reserved nodes
	// (paper §III-B.1).
	BackfillReserved bool
}

// SchedulerFactory builds a fresh scheduler instance for one simulation run.
// Factories must not share mutable state between the instances they return:
// sweep cells run concurrently.
type SchedulerFactory func(cfg SchedulerConfig) (sim.Mechanism, error)

var (
	mu         sync.RWMutex
	schedulers = map[string]SchedulerFactory{}
	policies   = map[string]policy.Ordering{}
)

// builtinSchedulers lists the always-available names in canonical order.
func builtinSchedulers() []string {
	return append([]string{"baseline"}, core.Names()...)
}

// builtinPolicies lists the always-available queue orderings.
func builtinPolicies() []string { return []string{"fcfs", "sjf", "ljf", "wfp3"} }

// RegisterScheduler makes factory resolvable by name everywhere mechanism
// names are accepted (Simulate, sessions, sweeps, the CLIs). It fails on an
// empty name, a built-in collision, or a duplicate registration.
func RegisterScheduler(name string, factory SchedulerFactory) error {
	if name == "" {
		return fmt.Errorf("registry: empty scheduler name")
	}
	if factory == nil {
		return fmt.Errorf("registry: nil factory for scheduler %q", name)
	}
	for _, b := range builtinSchedulers() {
		if name == b {
			return fmt.Errorf("registry: scheduler %q is a built-in", name)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := schedulers[name]; dup {
		return fmt.Errorf("registry: scheduler %q already registered", name)
	}
	schedulers[name] = factory
	return nil
}

// NewScheduler builds a fresh instance of the named scheduler: "baseline",
// one of the six core mechanisms, or a registered extension. The error for
// an unknown name lists every valid one.
func NewScheduler(name string, cfg SchedulerConfig) (sim.Mechanism, error) {
	if name == "baseline" {
		return sim.Baseline{}, nil
	}
	for _, b := range core.Names() {
		if name == b {
			return core.ByName(name, core.Config{
				ReleaseThreshold: cfg.ReleaseThreshold,
				DirectedReturn:   cfg.DirectedReturn,
				BackfillReserved: cfg.BackfillReserved,
			})
		}
	}
	mu.RLock()
	factory, ok := schedulers[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown scheduler %q (valid: %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
	return factory(cfg)
}

// SchedulerNames returns every resolvable scheduler name: the built-ins in
// canonical order, then registered extensions sorted alphabetically.
func SchedulerNames() []string {
	names := builtinSchedulers()
	mu.RLock()
	extra := make([]string, 0, len(schedulers))
	for name := range schedulers {
		extra = append(extra, name)
	}
	mu.RUnlock()
	sort.Strings(extra)
	return append(names, extra...)
}

// RegisterPolicy makes ord resolvable by its Name() everywhere policy names
// are accepted. It fails on an empty name, a built-in collision, or a
// duplicate registration.
func RegisterPolicy(ord policy.Ordering) error {
	if ord == nil {
		return fmt.Errorf("registry: nil policy")
	}
	name := ord.Name()
	if name == "" {
		return fmt.Errorf("registry: empty policy name")
	}
	if policy.ByName(name) != nil {
		return fmt.Errorf("registry: policy %q is a built-in", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := policies[name]; dup {
		return fmt.Errorf("registry: policy %q already registered", name)
	}
	policies[name] = ord
	return nil
}

// PolicyByName resolves a queue ordering: the built-ins (empty string means
// fcfs) or a registered extension. Unknown names return nil.
func PolicyByName(name string) policy.Ordering {
	if ord := policy.ByName(name); ord != nil {
		return ord
	}
	mu.RLock()
	defer mu.RUnlock()
	return policies[name]
}

// PolicyNames returns every resolvable policy name: the built-ins in
// canonical order, then registered extensions sorted alphabetically.
func PolicyNames() []string {
	names := builtinPolicies()
	mu.RLock()
	extra := make([]string, 0, len(policies))
	for name := range policies {
		extra = append(extra, name)
	}
	mu.RUnlock()
	sort.Strings(extra)
	return append(names, extra...)
}
