// Package runner executes experiment sweeps — (mechanism × notice-mix ×
// policy × seed × config-ablation) grids — across a bounded pool of worker
// goroutines while keeping every result bit-identical to a serial run.
//
// A sweep is a flat slice of Spec cells. Each cell is self-contained: it
// names its workload generator config, scheduling mechanism, queue policy,
// and system knobs, so cells can execute in any order on any worker. The
// runner guarantees:
//
//   - Determinism. Every random quantity of a cell derives from the cell's
//     own coordinates (the workload seed, or DeriveSeed of the coordinate
//     strings when no seed is given), never from scheduling order, so the
//     same grid produces byte-identical serialized reports under any worker
//     count. Results are returned in grid order, not completion order.
//   - Failure isolation. A cell that returns an error or panics is recorded
//     as a failed Result; the rest of the sweep completes.
//   - Trace sharing. Workload traces are memoized by generator config — and
//     source-backed cells by their spec string — so each unique trace is
//     materialized once and shared read-only by every cell that replays it
//     (e.g. the seven mechanisms of one Figure 6 column, or every mechanism
//     replaying one SWF import).
//
// Emitters serialize a finished Sweep as JSON or CSV (see Row); wall-clock
// measurements are excluded from those forms so emitted sweeps are stable
// across machines and worker counts.
package runner

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"hybridsched/internal/core"
	"hybridsched/internal/faults"
	"hybridsched/internal/metrics"
	"hybridsched/internal/simtime"
	"hybridsched/internal/source"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// Spec is the declarative coordinate of one sweep cell: everything needed to
// generate (or reuse) a workload trace and replay it under one scheduler
// configuration. The zero values of the knob fields take the paper-faithful
// defaults (4392 nodes, FCFS, 24 h MTBF, Daly-optimal checkpointing).
type Spec struct {
	// Group and Variant locate the cell in an experiment grid, e.g.
	// ("fig6", "W2"). They aggregate replicas into averaged data points and
	// label emitter rows; the runner itself only uses them for seed
	// derivation and progress lines.
	Group   string `json:"group,omitempty"`
	Variant string `json:"variant,omitempty"`

	// Mechanism is "baseline", one of the six core mechanism names, or any
	// scheduler registered with registry.RegisterScheduler.
	Mechanism string `json:"mechanism"`
	// Policy orders the waiting queue: fcfs (default), sjf, ljf, wfp3, or
	// any ordering registered with registry.RegisterPolicy.
	Policy string `json:"policy,omitempty"`
	// Nodes is the simulated system size; 0 takes Workload.Nodes, then 4392.
	Nodes int `json:"nodes,omitempty"`

	// Source, when non-empty, names the cell's workload as a source spec
	// (see internal/source: "swf:theta.swf|relabel:paper|scale:1.2"). It
	// takes precedence over Workload. Cells with identical Source strings
	// share one materialized trace, exactly like identical Workload configs;
	// file-backed specs are therefore read once per sweep.
	Source string `json:"source,omitempty"`

	// Workload configures the trace generator. A zero Seed is filled with
	// DeriveSeed(Group, Variant, Mechanism) so ad-hoc grids stay
	// deterministic without hand-assigned seeds. Ignored when Source is set.
	Workload workload.Config `json:"-"`

	// Core configures the mechanism (release threshold, directed return,
	// backfill-reserved). Zero value means core.DefaultConfig().
	// Core.BackfillReserved also lets the engine backfill onto reserved
	// nodes (§III-B.1), so one switch turns the option on in both.
	Core core.Config `json:"-"`

	// MTBF is the system mean time between failures in seconds, driving the
	// Daly checkpoint interval (default 24 h).
	MTBF float64 `json:"-"`
	// CkptFreqMult scales the checkpoint interval around the Daly optimum
	// (Fig. 7); default 1.0.
	CkptFreqMult float64 `json:"-"`
	// Validate checks the cluster partition invariant after every event and
	// every scheduler pass against a plan computed from scratch (see
	// sim.Config.Validate).
	Validate bool `json:"-"`

	// FaultMTBF, when positive, wraps the cell's mechanism in the fault
	// injector at this system MTBF (seconds): failures strike uniformly
	// random nodes on an exponential timeline and interrupt whatever holds
	// them.
	FaultMTBF float64 `json:"fault_mtbf,omitempty"`
	// FaultMeanRepair is the mean node repair time in seconds; failed nodes
	// leave service for a drawn repair window. Zero keeps the legacy
	// instant-repair shortcut (capacity never shrinks).
	FaultMeanRepair float64 `json:"fault_repair,omitempty"`
	// FaultSeed drives the failure timeline. Zero derives from the workload
	// seed (or, for source-backed cells, from the source spec string) —
	// never from the mechanism, so every mechanism replaying one workload
	// faces the identical failure process.
	FaultSeed int64 `json:"-"`
	// FaultHorizon bounds the failure timeline in virtual seconds. Zero
	// derives from the workload length (Weeks+4 weeks), or for source-backed
	// cells from the materialized trace's span plus four weeks.
	FaultHorizon int64 `json:"-"`

	// Drains schedules maintenance windows on the cell's engine.
	Drains []DrainSpec `json:"-"`
}

// DrainSpec is one scheduled maintenance window of a cell: up to Nodes nodes
// leave service at Start (free nodes immediately, more as jobs release them)
// and return at Start+Duration. Drains never preempt.
type DrainSpec struct {
	Start    int64
	Duration int64
	Nodes    int
}

// withDefaults fills the paper-faithful defaults into zero fields: the
// recipe's for the system knobs, then the cell's derived coordinates.
func (s Spec) withDefaults() Spec {
	if s.Nodes == 0 {
		s.Nodes = s.Workload.Nodes
	}
	d := s.recipe().WithDefaults()
	s.Nodes, s.Mechanism, s.Policy = d.Nodes, d.Mechanism, d.Policy
	s.MTBF, s.CkptFreqMult = d.MTBF, d.CkptFreqMult
	// Source-backed cells leave Workload untouched: the spec is the whole
	// workload identity (and the memo key), so a derived seed would only
	// muddy Key() and the emitted rows.
	if s.Source == "" {
		if s.Workload.Nodes == 0 {
			s.Workload.Nodes = s.Nodes
		}
		if s.Workload.Seed == 0 {
			s.Workload.Seed = DeriveSeed(s.Group, s.Variant, s.Mechanism)
		}
	}
	if s.Core == (core.Config{}) {
		s.Core = core.DefaultConfig()
	}
	if s.FaultMTBF > 0 && s.FaultSeed == 0 {
		// The fault seed must not depend on the mechanism: every mechanism
		// replaying one workload sees the same failure timeline, the
		// controlled comparison the resilience grid relies on. Generated
		// cells reuse the workload seed; source cells derive from the spec
		// string alone.
		if s.Source != "" {
			s.FaultSeed = DeriveSeed("faults", s.Source)
		} else {
			s.FaultSeed = s.Workload.Seed
		}
	}
	if s.FaultMTBF > 0 && s.FaultHorizon == 0 && s.Source == "" {
		// Source-backed cells resolve the horizon in runOne instead, once
		// the trace is materialized and its span known.
		weeks := s.Workload.Weeks
		if weeks <= 0 {
			weeks = 4 // the generator's own default trace length
		}
		s.FaultHorizon = int64(weeks+4) * simtime.Week
	}
	return s
}

// recipe is the cell's engine recipe. A resolved cell's, fault horizon
// included, is complete.
func (s Spec) recipe() Recipe {
	r := Recipe{
		Nodes:            s.Nodes,
		Mechanism:        s.Mechanism,
		Policy:           s.Policy,
		MTBF:             s.MTBF,
		CkptFreqMult:     s.CkptFreqMult,
		BackfillReserved: s.Core.BackfillReserved,
		NoDirectedReturn: !s.Core.DirectedReturn,
		ReleaseThreshold: s.Core.ReleaseThreshold,
		Validate:         s.Validate,
		Drains:           s.Drains,
	}
	if s.FaultMTBF > 0 {
		r.Faults = &faults.Config{
			MTBF:       s.FaultMTBF,
			Seed:       s.FaultSeed,
			Horizon:    s.FaultHorizon,
			MeanRepair: s.FaultMeanRepair,
		}
	}
	return r
}

// Key renders the cell coordinates compactly for progress lines and errors.
func (s Spec) Key() string {
	key := s.Mechanism
	if s.Variant != "" {
		key = s.Variant + "/" + key
	}
	if s.Group != "" {
		key = s.Group + "/" + key
	}
	if s.FaultMTBF > 0 {
		key = fmt.Sprintf("%s/mtbf%.0fs", key, s.FaultMTBF)
	}
	if s.Source != "" {
		return fmt.Sprintf("%s/src=%s", key, s.Source)
	}
	return fmt.Sprintf("%s/seed%d", key, s.Workload.Seed)
}

// DeriveSeed hashes coordinate strings into a stable positive seed (FNV-1a),
// so a cell's randomness depends only on where it sits in the grid — never
// on worker count or completion order.
func DeriveSeed(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // separator: ("ab","c") != ("a","bc")
	}
	v := int64(h.Sum64() &^ (1 << 63))
	if v == 0 {
		v = 1
	}
	return v
}

// Result is the structured outcome of one cell.
type Result struct {
	// Spec echoes the executed cell with defaults applied (so the actual
	// seed and node count are visible even when derived).
	Spec Spec
	// Report holds the simulation measurements when the cell succeeded.
	Report metrics.Report
	// Err is non-empty when the cell failed; panics are captured here as
	// "panic: ..." and do not abort the sweep.
	Err string
	// ElapsedMS is the cell's wall-clock runtime (excluded from emitters).
	ElapsedMS float64
}

// Failed reports whether the cell errored or panicked.
func (r Result) Failed() bool { return r.Err != "" }

// Sweep is a completed grid execution: one Result per Spec, in grid order.
type Sweep struct {
	Results []Result
	// Workers is the pool size the sweep actually ran with.
	Workers int
	// Wall is the sweep's total wall-clock time.
	Wall time.Duration
}

// Failed counts the cells that errored or panicked.
func (s Sweep) Failed() int {
	n := 0
	for _, r := range s.Results {
		if r.Failed() {
			n++
		}
	}
	return n
}

// Err returns the first cell failure in grid order, or nil if every cell
// succeeded.
func (s Sweep) Err() error {
	for _, r := range s.Results {
		if r.Failed() {
			return fmt.Errorf("runner: cell %s: %s", r.Spec.Key(), r.Err)
		}
	}
	return nil
}

// Options control sweep execution. They never affect results, only speed and
// reporting.
type Options struct {
	// Workers bounds the goroutine pool; <= 0 means runtime.NumCPU().
	Workers int
	// Progress receives one line per completed cell plus a final summary
	// (nil = quiet). Lines appear in completion order.
	Progress io.Writer

	// CheckpointDir, when non-empty, persists per-cell progress into this
	// directory: each cell writes an engine snapshot every CheckpointEvery
	// events (cell-<hash>.snap, written atomically and retired on completion)
	// and its final report as cell-<hash>.done.json. Checkpointing never
	// changes results — resumed and uninterrupted sweeps emit byte-identical
	// reports. Cells whose scheduler cannot snapshot run to completion
	// without checkpoints.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval in dispatched events;
	// <= 0 takes a default suited to multi-week cells.
	CheckpointEvery int
	// Resume consults CheckpointDir before executing each cell: a done file
	// short-circuits the cell with its persisted report, a valid snapshot
	// resumes it mid-run, and anything missing or corrupt (a torn write from
	// a killed sweep, a stale format version) falls back to a fresh run.
	Resume bool
}

// runHook, when non-nil, runs before each cell executes. It is a test seam
// for failure-isolation coverage (a hook that panics simulates a crashing
// cell); set it only before calling Run.
var runHook func(Spec)

// Run executes every cell of the grid across the worker pool and returns the
// results in grid order. Cell failures are isolated into their Results (see
// Sweep.Err); Run itself does not fail.
func Run(specs []Spec, opt Options) Sweep {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	start := time.Now()
	results := make([]Result, len(specs))
	ck := opt.ckpt()
	if ck != nil {
		if err := os.MkdirAll(ck.dir, 0o755); err != nil {
			// No directory, no checkpointing: fail every cell up front rather
			// than run the sweep while silently dropping the persistence the
			// caller asked for.
			for i := range specs {
				results[i] = Result{Spec: specs[i].withDefaults(), Err: fmt.Sprintf("checkpoint dir: %v", err)}
			}
			return Sweep{Results: results, Workers: workers, Wall: time.Since(start)}
		}
	}
	if len(specs) > 0 {
		cache := newTraceCache()
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex // guards done + Progress interleaving
			done int
		)
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					res := runOne(specs[i], cache, ck)
					results[i] = res
					if opt.Progress != nil {
						mu.Lock()
						done++
						status := "ok"
						if res.Failed() {
							status = "FAIL: " + res.Err
						}
						fmt.Fprintf(opt.Progress, "runner: [%d/%d] %s %.1fs %s\n",
							done, len(specs), res.Spec.Key(), res.ElapsedMS/1000, status)
						mu.Unlock()
					}
				}
			}()
		}
		for i := range specs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	sweep := Sweep{Results: results, Workers: workers, Wall: time.Since(start)}
	if opt.Progress != nil {
		fmt.Fprintf(opt.Progress, "runner: %d cells (%d failed) in %s with %d workers\n",
			len(specs), sweep.Failed(), sweep.Wall.Round(time.Millisecond), workers)
	}
	return sweep
}

// runOne executes a single cell, converting errors and panics into the
// Result so one bad cell cannot kill the sweep.
func runOne(spec Spec, cache *traceCache, ck *ckptState) (res Result) {
	start := time.Now()
	s := spec.withDefaults()
	res.Spec = s
	defer func() {
		res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	if runHook != nil {
		runHook(s)
	}
	recs, err := cache.records(s)
	if err != nil {
		res.Err = err.Error()
		return
	}
	if s.FaultMTBF > 0 && s.FaultHorizon == 0 {
		// Source-backed cell: cover the whole replayed trace plus tail room
		// for the queue to drain, so failures do not silently stop partway
		// through a long import.
		var span int64
		for _, r := range recs {
			span = max(span, r.Submit)
		}
		s.FaultHorizon = span + 4*simtime.Week
	}
	res.Spec = s
	r := s.recipe()
	engine, err := r.Build(trace.Materialize(recs, r.Plan))
	if err != nil {
		res.Err = err.Error()
		return
	}
	// Checkpoint files are keyed by the fully resolved spec, so the done-file
	// check waited until the last derived field (the source-cell fault
	// horizon) was in place.
	if ck != nil {
		if ck.resume {
			if rep, ok := ck.loadDone(s); ok {
				res.Report = rep
				return
			}
			ck.tryRestore(s, engine)
		}
		rep, err := runCheckpointed(engine, ck, s)
		if err != nil {
			res.Err = err.Error()
			return
		}
		if err := ck.finish(s, rep); err != nil {
			res.Err = fmt.Sprintf("write checkpoint: %v", err)
			return
		}
		res.Report = rep
		return
	}
	rep, err := engine.Run()
	if err != nil {
		res.Err = err.Error()
		return
	}
	res.Report = rep
	return
}

// traceCache memoizes materialized workload traces — synthetic generation
// keyed by normalized generator config, source specs keyed by the spec
// string. Records are immutable after materialization (Materialize only
// reads them), so one trace is safely shared by every cell that replays it;
// cells needing the same in-flight trace block on its sync.Once.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceEntry
	gens    int // materializations, for tests
}

type traceEntry struct {
	once sync.Once
	recs []trace.Record
	err  error
}

func newTraceCache() *traceCache {
	return &traceCache{entries: map[string]*traceEntry{}}
}

// generate is swapped out by tests that need a crashing generator.
var generate = workload.Generate

// materializeSource compiles and drains a source spec into a record slice,
// each record normalized and checked as a session's Submit checks it, so a
// malformed record fails its cells with an error naming it.
func materializeSource(spec string) ([]trace.Record, error) {
	src, err := source.Parse(spec)
	if err != nil {
		return nil, err
	}
	recs, err := source.ReadAll(src)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if recs[i], err = recs[i].Normalize(); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// records resolves a cell's trace: the source spec when set, the synthetic
// generator config otherwise, both through the shared memo.
func (c *traceCache) records(s Spec) ([]trace.Record, error) {
	if s.Source != "" {
		return c.get("source\x00"+s.Source, func() ([]trace.Record, error) {
			return materializeSource(s.Source)
		})
	}
	norm, err := s.Workload.Normalize()
	if err != nil {
		return nil, err
	}
	return c.get(fmt.Sprintf("workload\x00%+v", norm), func() ([]trace.Record, error) {
		return generate(norm)
	})
}

func (c *traceCache) get(key string, gen func() ([]trace.Record, error)) ([]trace.Record, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &traceEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.mu.Lock()
		c.gens++
		c.mu.Unlock()
		// A panicking generator must poison the entry, not leave it nil-and-
		// no-error: every sibling cell sharing this trace has to fail too.
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("workload generator panic: %v", p)
			}
		}()
		e.recs, e.err = gen()
	})
	return e.recs, e.err
}
