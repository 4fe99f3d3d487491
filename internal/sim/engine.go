// Package sim implements the trace-driven, event-driven scheduling simulator
// the paper's evaluation runs on (a Go port of CQSim's architecture: job
// trace module, queue manager, cluster module, scheduler, event engine).
//
// The engine owns the virtual clock, the event queue, the cluster, and the
// waiting queue, and it executes the baseline FCFS/EASY scheduling loop. The
// paper's contribution — the six hybrid-workload mechanisms — plugs in
// through the Mechanism interface: the engine reports on-demand notices,
// arrivals, job completions, warning expiries, and timer events; the
// mechanism responds using the engine's resource primitives (preempt,
// shrink, expand, reserve, start). sim deliberately never imports
// internal/core, so the substrate stays reusable.
package sim

import (
	"fmt"
	"slices"
	"sort"

	"hybridsched/internal/cluster"
	"hybridsched/internal/eventq"
	"hybridsched/internal/job"
	"hybridsched/internal/metrics"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
	"hybridsched/internal/simtime"
)

// Config parameterizes an engine run.
type Config struct {
	// Nodes is the system size (default 4392, Theta).
	Nodes int
	// Policy orders the waiting queue (default FCFS).
	Policy policy.Ordering
	// BackfillReserved lets backfill candidates run on nodes reserved for
	// pending on-demand jobs; such squatters are preempted the instant the
	// on-demand job arrives (paper §III-B.1). Default off.
	BackfillReserved bool
	// Validate checks the cluster partition invariant after every event and,
	// at every scheduler pass, holds the incremental scheduler state and the
	// pass's plan to a from-scratch derivation (the waiting queue against the
	// per-job flags, the release list against the running set, the starts
	// against policy.PlanEASY); a mismatch fails the run. The checks only
	// read, so a validated run is byte-identical to an unvalidated one.
	// Meant for tests; expensive on long traces.
	Validate bool
	// MaxSimTime aborts the run if the clock passes this bound (0 = none).
	MaxSimTime int64
	// Stopwatch measures decision latency for the metrics report (default
	// simtime.Wall). Inject simtime.Frozen to zero out latency telemetry —
	// the one engine output that legitimately varies between hosts.
	Stopwatch simtime.Stopwatch
	// ReleaseCompleted keeps resident memory flat on streamed runs: the
	// engine forgets a job entirely at completion (its index entry, its
	// bookkeeping, and — after priming — its slot in the registration list),
	// and the metrics collector aggregates completions into constant-memory
	// moments instead of retaining a per-job result. A 25M-job run submitted
	// incrementally holds steady RSS. Trade-offs: reports carry no PerJob
	// list and no rank statistics, Snapshot/LoadSnapshot are refused, and a
	// completed job's ID can silently be reused by a later Submit — the
	// engine no longer remembers it.
	ReleaseCompleted bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4392
	}
	if c.Policy == nil {
		c.Policy = policy.FCFS{}
	}
	if c.Stopwatch == nil {
		c.Stopwatch = simtime.Wall
	}
	return c
}

// Mechanism is the plug-in interface for hybrid-workload scheduling logic.
// The engine invokes the callbacks; implementations drive the engine's
// resource primitives. The Baseline mechanism ignores everything.
type Mechanism interface {
	// Name identifies the mechanism in reports (e.g. "CUA&SPAA").
	Name() string
	// Attach wires the mechanism to the engine before the run starts.
	Attach(e *Engine)
	// QueueOnDemandFirst reports whether on-demand jobs that could not start
	// instantly jump to the front of the waiting queue.
	QueueOnDemandFirst() bool
	// FlexibleMalleable reports whether the scheduler may size malleable
	// jobs between their minimum and maximum. The Table II baseline gives
	// malleable jobs "no special treatment" and runs them rigidly.
	FlexibleMalleable() bool
	// OnNotice fires when an on-demand job's advance notice arrives.
	OnNotice(j *job.Job)
	// OnODArrival fires when an on-demand job actually arrives. Returning
	// true means the mechanism handled the job (started it or holds a
	// pending start); false lets the engine queue it normally.
	OnODArrival(j *job.Job) bool
	// OnJobCompleted fires after any job completes and its nodes returned to
	// the free pool; freed is the released node set.
	OnJobCompleted(j *job.Job, freed *nodeset.Set)
	// OnWarningExpired fires when a malleable preemption warning ends and
	// the job's nodes (freed) have been returned to the free pool. claim is
	// the reservation the preemption was made for (negative: none).
	OnWarningExpired(j *job.Job, claim int, freed *nodeset.Set)
	// OnODStarted fires whenever an on-demand job starts, from any path.
	OnODStarted(j *job.Job)
	// OnTimer delivers payloads scheduled with Engine.ScheduleTimer.
	OnTimer(payload any)
}

// Baseline is the no-mechanism scheduler of Table II: on-demand jobs queue
// like everyone else and nothing is ever preempted or shrunk.
type Baseline struct{}

// Name returns "FCFS/EASY".
func (Baseline) Name() string { return "FCFS/EASY" }

// Attach does nothing.
func (Baseline) Attach(*Engine) {}

// QueueOnDemandFirst returns false: no special treatment.
func (Baseline) QueueOnDemandFirst() bool { return false }

// FlexibleMalleable returns false: malleable jobs run rigidly at full size.
func (Baseline) FlexibleMalleable() bool { return false }

// OnNotice ignores advance notices.
func (Baseline) OnNotice(*job.Job) {}

// OnODArrival declines to handle the job, so it queues normally.
func (Baseline) OnODArrival(*job.Job) bool { return false }

// OnJobCompleted does nothing.
func (Baseline) OnJobCompleted(*job.Job, *nodeset.Set) {}

// OnWarningExpired does nothing (the baseline never preempts).
func (Baseline) OnWarningExpired(*job.Job, int, *nodeset.Set) {}

// OnODStarted does nothing.
func (Baseline) OnODStarted(*job.Job) {}

// OnTimer does nothing.
func (Baseline) OnTimer(any) {}

// EventType classifies the scheduling events an engine emits through its
// event sink (see SetEventSink). The stream is the observable trace of one
// run: every job arrival, notice, start, preemption, resize, and completion
// appears exactly once, in dispatch order.
type EventType int

// The event vocabulary.
const (
	// EventArrival: a job was submitted and entered the system.
	EventArrival EventType = iota
	// EventNotice: an on-demand job's advance notice was received.
	EventNotice
	// EventStart: a job started (or restarted) on Nodes nodes.
	EventStart
	// EventEnd: a job completed; Nodes is the size it finished on.
	EventEnd
	// EventWarning: a malleable job entered its two-minute preemption warning.
	EventWarning
	// EventPreempt: a job involuntarily lost its Nodes nodes (immediate
	// preemption or warning expiry) and re-entered the waiting queue.
	EventPreempt
	// EventShrink: a running malleable job released Nodes of its nodes.
	EventShrink
	// EventExpand: a running malleable job grew by Nodes nodes.
	EventExpand
	// EventCheckpoint: a preempted rigid job's progress was rolled back to
	// its last completed defensive checkpoint.
	EventCheckpoint
	// EventNodeDown: Nodes nodes left service (a failure under repair, or a
	// maintenance drain absorbing them). Node events carry no job: Job is -1
	// and Class is meaningless.
	EventNodeDown
	// EventNodeUp: Nodes nodes returned to service (repair completed or a
	// maintenance window ended). Job is -1.
	EventNodeUp
	// EventDrain: a maintenance drain window opened, requesting Nodes nodes.
	// The nodes it actually absorbs are reported by EventNodeDown events as
	// free capacity appears. Job is -1.
	EventDrain
)

// String returns the lower-case event name.
func (t EventType) String() string {
	switch t {
	case EventArrival:
		return "arrival"
	case EventNotice:
		return "notice"
	case EventStart:
		return "start"
	case EventEnd:
		return "end"
	case EventWarning:
		return "warning"
	case EventPreempt:
		return "preempt"
	case EventShrink:
		return "shrink"
	case EventExpand:
		return "expand"
	case EventCheckpoint:
		return "checkpoint"
	case EventNodeDown:
		return "nodedown"
	case EventNodeUp:
		return "nodeup"
	case EventDrain:
		return "drain"
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is one typed scheduling event, emitted synchronously as the engine
// processes the underlying state change. Node-availability events
// (EventNodeDown, EventNodeUp, EventDrain) carry no job: Job is -1 and Class
// is meaningless.
type Event struct {
	Type  EventType
	Time  int64     // virtual time of the event
	Job   int       // job ID (-1 for node-availability events)
	Class job.Class // job class
	Nodes int       // node count involved (job size, shrink/expand delta, down/up count)
}

// primedEvent is the arrival (Prio PrioArrive) or advance notice (PrioNotice)
// of a job registered before the first Step. These wait in the engine's
// sorted cursor, not in the event queue; see prime.
type primedEvent struct {
	key eventq.Key
	j   *job.Job
}

// squat records a backfilled job occupying nodes reserved for a claim.
type squat struct {
	claim int
	nodes *nodeset.Set
}

// jobEntry is the engine's per-job bookkeeping, consolidated into one record
// so the hot path does a single index lookup instead of probing five maps.
type jobEntry struct {
	j       *job.Job
	inQueue bool
	running bool // Running or Warning (holds nodes)
	endEv   *eventq.Event
	warnEv  *eventq.Event

	// Release-list membership: the estimated-end key the job's entry was
	// inserted under, so removal can binary-search instead of recomputing an
	// estimate that may have moved on.
	relEnd int64
	relOn  bool
}

// denseSlack bounds how far beyond the contiguous block of registered job IDs
// the dense entry table may extend. Traces renumber jobs from 1, so in
// practice every job lands in the dense table; a wild outlier ID falls back
// to the sparse map instead of ballooning the table.
const denseSlack = 1024

// Engine is the simulator instance. Create with New. Run executes to
// completion in one call; Step/Submit/AdvanceTo drive it incrementally.
type Engine struct {
	cfg  Config
	mech Mechanism
	clk  int64

	// Pending events come from three sources, dispatched in one
	// (Time, Prio, Seq) order (see peek): the event queue q holds in-flight
	// events and live submissions; primedEvs holds the arrivals and notices
	// of the jobs known at prime, sorted once, with nextPrimed the earliest
	// not yet dispatched; and a requested scheduler pass is schedPending
	// plus schedSeq, since it always sits at the clock with the last
	// priority. Snapshot writes the three as one merged event list.
	q          eventq.Queue
	primedEvs  []primedEvent
	nextPrimed int
	schedSeq   uint64

	cl  *cluster.Cluster
	met *metrics.Collector
	//schedlint:snapfield telemetry stopwatch is host wiring, re-injected via Config at restore
	sw simtime.Stopwatch // cfg.Stopwatch, cached at construction

	jobs []*job.Job

	// Job bookkeeping: a dense table indexed by job ID for the common
	// contiguous-ID case, with a sparse fallback for outlier IDs. Entry
	// pointers are invalidated by registering a new job (the dense table may
	// reallocate); take them fresh, never store them.
	//schedlint:snapfield index over e.jobs; rebuilt by re-registering restored jobs
	dense []jobEntry
	//schedlint:snapfield index over e.jobs; rebuilt by re-registering restored jobs
	sparse map[int]*jobEntry

	// queue is the waiting queue in policy order, with the need index the
	// planner's backfill phase walks. A time-invariant policy keeps it in
	// order incrementally (binary-search insertion); the built-in orderings
	// are total, so the result is exactly what a per-pass stable sort would
	// produce. Time-dependent policies (WFP3, unknown registered ones)
	// re-sort every pass.
	queue policy.Queue

	// running lists every job holding nodes (Running or Warning), in
	// ascending ID order, maintained incrementally.
	running []*job.Job

	// rel is the (EstEnd, ID)-ordered release list the backfill planner
	// reads, maintained incrementally: jobs enter at start, leave at
	// completion/preemption, and move when a resize or warning changes their
	// estimated release. Estimate-based ends are invariant between those
	// transitions (see job.MalleableEstimatedEndAsOf), so the list never goes
	// stale in between.
	//schedlint:snapfield rebuilt from the restored running set; see releaseList
	rel []policy.Running

	//schedlint:snapfield scratch planner; across passes it keeps only its work count, which no report reads
	planner policy.Planner

	schedPending bool
	completed    int
	dispatched   int
	//schedlint:snapfield re-counted by re-registering restored jobs (snapshots refuse ReleaseCompleted, so none were pruned)
	registered int // jobs ever registered; stable when ReleaseCompleted prunes e.jobs
	primed     bool
	//schedlint:snapfield event-sink callback is host wiring, re-attached by the caller
	sink func(Event)

	// Availability model: maintenance windows currently absorbing nodes.
	// Failed nodes under repair are tracked by their pending evNodeUp events
	// and the cluster's down pool; see avail.go.
	drains []*drainWindow

	// BackfillReserved bookkeeping.
	backfillable map[int]bool    // claims whose reservations may host squatters
	squats       map[int][]squat // squatter job ID -> occupied reserved nodes
	squatted     map[int]int     // claim -> node count occupied by squatters

	err error
}

// New builds an engine over jobs (any order) with the given mechanism. Job
// IDs must be unique and sizes must fit the system.
func New(cfg Config, jobs []*job.Job, mech Mechanism) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:          cfg,
		mech:         mech,
		cl:           cluster.New(cfg.Nodes),
		met:          metrics.NewCollector(cfg.Nodes),
		jobs:         jobs,
		backfillable: make(map[int]bool),
		squats:       make(map[int][]squat),
		squatted:     make(map[int]int),
	}
	e.sw = cfg.Stopwatch
	e.queue = policy.NewQueue(cfg.Policy, mech.QueueOnDemandFirst(), mech.FlexibleMalleable())
	if cfg.ReleaseCompleted {
		e.met.EnableStreaming()
	}
	for _, j := range jobs {
		if j.Size > cfg.Nodes {
			return nil, fmt.Errorf("sim: job %d size %d exceeds system %d", j.ID, j.Size, cfg.Nodes)
		}
		if err := e.register(j); err != nil {
			return nil, err
		}
	}
	mech.Attach(e)
	return e, nil
}

// register records j in the ID index, choosing dense or sparse storage. It
// fails on a duplicate ID.
func (e *Engine) register(j *job.Job) error {
	if ent := e.lookup(j.ID); ent != nil {
		return fmt.Errorf("sim: duplicate job ID %d", j.ID)
	}
	e.registered++
	// ReleaseCompleted runs register sparsely: the dense table cannot shrink
	// when completed jobs are forgotten, and streamed IDs grow without bound.
	if !e.cfg.ReleaseCompleted && j.ID >= 0 && j.ID < 2*(len(e.jobs)+1)+denseSlack {
		for len(e.dense) <= j.ID {
			e.dense = append(e.dense, jobEntry{})
		}
		e.dense[j.ID].j = j
		return nil
	}
	if e.sparse == nil {
		e.sparse = make(map[int]*jobEntry)
	}
	e.sparse[j.ID] = &jobEntry{j: j}
	return nil
}

// lookup returns the entry for a registered job ID, or nil. The pointer is
// valid only until the next register call. An empty dense slot falls through
// to the sparse map: the dense table can grow past an ID that was registered
// sparsely when its block was still out of range.
func (e *Engine) lookup(id int) *jobEntry {
	if id >= 0 && id < len(e.dense) {
		if ent := &e.dense[id]; ent.j != nil {
			return ent
		}
	}
	return e.sparse[id]
}

// mustEnt returns the entry for a job the engine has registered; a missing
// entry is an internal bug.
func (e *Engine) mustEnt(j *job.Job) *jobEntry {
	ent := e.lookup(j.ID)
	if ent == nil {
		panic(fmt.Sprintf("sim: job %d has no entry", j.ID))
	}
	return ent
}

// addRunning inserts j into the ID-ordered running list and into the
// planner's release list.
func (e *Engine) addRunning(j *job.Job) {
	i := sort.Search(len(e.running), func(k int) bool { return e.running[k].ID >= j.ID })
	e.running = append(e.running, nil)
	copy(e.running[i+1:], e.running[i:])
	e.running[i] = j
	e.relAdd(j)
}

// removeRunning deletes the job with the given ID from the running list and
// the release list.
func (e *Engine) removeRunning(id int) {
	i := sort.Search(len(e.running), func(k int) bool { return e.running[k].ID >= id })
	if i < len(e.running) && e.running[i].ID == id {
		copy(e.running[i:], e.running[i+1:])
		e.running[len(e.running)-1] = nil
		e.running = e.running[:len(e.running)-1]
	}
	e.relDel(id)
}

// relAdd inserts j's planning view into the (EstEnd, ID)-ordered release
// list.
func (e *Engine) relAdd(j *job.Job) {
	r, ok := e.runningInfo(j)
	if !ok {
		return
	}
	i := sort.Search(len(e.rel), func(k int) bool { return !policy.RelLess(e.rel[k], r) })
	e.rel = append(e.rel, policy.Running{})
	copy(e.rel[i+1:], e.rel[i:])
	e.rel[i] = r
	ent := e.mustEnt(j)
	ent.relEnd = r.EstEnd
	ent.relOn = true
}

// relDel removes job id from the release list, locating it by the key it was
// inserted under.
func (e *Engine) relDel(id int) {
	ent := e.lookup(id)
	if ent == nil || !ent.relOn {
		return
	}
	key := policy.Running{EstEnd: ent.relEnd, ID: id}
	i := sort.Search(len(e.rel), func(k int) bool { return !policy.RelLess(e.rel[k], key) })
	if i < len(e.rel) && e.rel[i].ID == id {
		copy(e.rel[i:], e.rel[i+1:])
		e.rel = e.rel[:len(e.rel)-1]
	}
	ent.relOn = false
}

// relRefresh re-keys a node-holding job whose estimated release moved — a
// malleable resize or the start of a preemption warning.
func (e *Engine) relRefresh(j *job.Job) {
	e.relDel(j.ID)
	e.relAdd(j)
}

// Now returns the virtual clock.
func (e *Engine) Now() int64 { return e.clk }

// Cluster exposes the node pool to mechanisms.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Metrics exposes the collector (mechanisms record decision latencies).
func (e *Engine) Metrics() *metrics.Collector { return e.met }

// Stopwatch exposes the injected decision-latency stopwatch so mechanisms
// can time their own work without touching the wall clock directly.
func (e *Engine) Stopwatch() simtime.Stopwatch { return e.sw }

// Running returns the currently running rigid and malleable jobs (the
// preemption candidates: on-demand jobs are never preempted, and jobs
// already in their warning are spoken for), sorted by ID for determinism.
// The slice is freshly allocated — callers sort and mutate it freely.
func (e *Engine) Running() []*job.Job {
	out := make([]*job.Job, 0, len(e.running))
	for _, j := range e.running {
		if j.State == job.Running && j.Class != job.OnDemand {
			out = append(out, j)
		}
	}
	return out
}

// RunningAll returns every job currently holding nodes (Running or Warning,
// all classes), sorted by ID. The slice is freshly allocated.
func (e *Engine) RunningAll() []*job.Job {
	out := make([]*job.Job, len(e.running))
	copy(out, e.running)
	return out
}

// QueuedJobs returns the waiting queue in its current order. The slice is
// freshly allocated.
func (e *Engine) QueuedJobs() []*job.Job {
	out := make([]*job.Job, e.queue.Len())
	copy(out, e.queue.Jobs())
	return out
}

// QueueDepth returns the number of jobs in the waiting queue.
func (e *Engine) QueueDepth() int { return e.queue.Len() }

// Nodes returns the system size.
func (e *Engine) Nodes() int { return e.cfg.Nodes }

// SubmittedCount returns how many jobs have been registered with the engine.
func (e *Engine) SubmittedCount() int { return e.registered }

// CompletedCount returns how many jobs have completed.
func (e *Engine) CompletedCount() int { return e.completed }

// DispatchedCount returns how many events the engine has dispatched so far
// (arrivals, notices, completions, warnings, timers, and scheduler passes —
// not deadlock-break housekeeping steps).
func (e *Engine) DispatchedCount() int { return e.dispatched }

// Queued reports whether job id is in the waiting queue.
func (e *Engine) Queued(id int) bool {
	ent := e.lookup(id)
	return ent != nil && ent.inQueue
}

// JobByID resolves a job by its ID (nil if unknown).
func (e *Engine) JobByID(id int) *job.Job {
	if ent := e.lookup(id); ent != nil {
		return ent.j
	}
	return nil
}

// EnqueueWaiting places a waiting job into the queue; mechanisms use it for
// fallback paths after reporting an arrival as handled.
func (e *Engine) EnqueueWaiting(j *job.Job) {
	e.enqueue(j)
	e.requestSchedule()
}

// IsRunningOrWarning reports whether job id currently holds nodes.
func (e *Engine) IsRunningOrWarning(id int) bool {
	ent := e.lookup(id)
	return ent != nil && ent.running
}

// SetEventSink installs fn to receive every typed scheduling event the
// engine processes, synchronously and in dispatch order. A nil fn disables
// emission (the default), and with no sink the engine skips constructing
// events entirely. The sink may be installed or swapped between steps;
// events dispatched while no sink was installed are not replayed.
func (e *Engine) SetEventSink(fn func(Event)) { e.sink = fn }

// emit delivers an event to the sink, if one is installed.
func (e *Engine) emit(t EventType, j *job.Job, nodes int) {
	if e.sink != nil {
		e.sink(Event{Type: t, Time: e.clk, Job: j.ID, Class: j.Class, Nodes: nodes})
	}
}

// prime schedules the arrival (and notice) events of every job registered
// before the first Step, opens the metrics observation window at the
// earliest submission and sizes the collector's results for those jobs. It
// runs exactly once, lazily. The events never enter the event queue: each
// takes the sequence number a push would have given it, in registration
// order, and the lot is sorted once into the primed cursor, which Step
// merges with the queue under the same order.
func (e *Engine) prime() {
	if e.primed {
		return
	}
	e.primed = true
	if len(e.jobs) == 0 {
		return
	}
	n := len(e.jobs)
	for _, j := range e.jobs {
		if hasNotice(j) {
			n++
		}
	}
	evs := make([]primedEvent, 0, n)
	minSubmit := e.jobs[0].SubmitTime
	for _, j := range e.jobs {
		if j.SubmitTime < minSubmit {
			minSubmit = j.SubmitTime
		}
		evs = append(evs, primedEvent{eventq.Key{Time: j.SubmitTime, Prio: eventq.PrioArrive, Seq: e.q.TakeSeq()}, j})
		if hasNotice(j) {
			evs = append(evs, primedEvent{eventq.Key{Time: j.NoticeTime, Prio: eventq.PrioNotice, Seq: e.q.TakeSeq()}, j})
		}
	}
	slices.SortFunc(evs, func(a, b primedEvent) int { return a.key.Compare(b.key) })
	e.primedEvs, e.nextPrimed = evs, 0
	e.met.NoteSubmit(minSubmit)
	e.met.Reserve(len(e.jobs))
	if e.cfg.ReleaseCompleted {
		// Every primed job now lives in the cursor and the index; the
		// registration list would otherwise pin all of them forever.
		e.jobs = nil
	}
	// The clock stays at zero until the first event: all trace times are
	// non-negative, and mechanism timers may have been scheduled at attach
	// time, before the first submission.
}

// hasNotice reports whether j is an on-demand job announced ahead of its
// arrival.
func hasNotice(j *job.Job) bool {
	return j.Class == job.OnDemand && j.NoticeTime < j.SubmitTime
}

// pushArrival schedules a live submission's arrival and (for noticed
// on-demand jobs) its advance-notice event in the queue. A notice instant
// already in the past fires immediately instead of violating clock
// monotonicity.
func (e *Engine) pushArrival(j *job.Job) {
	e.q.Push(j.SubmitTime, eventq.PrioArrive, evArrive{j})
	if hasNotice(j) {
		e.q.Push(max(j.NoticeTime, e.clk), eventq.PrioNotice, evNotice{j})
	}
}

// Submit registers an additional job with the engine. Before the first Step
// the job simply joins the initial trace, whose arrivals prime sorts into
// the primed cursor; after that it is injected into the live event stream
// through the event queue, so its submission time must not lie in the past.
// Job IDs must be unique and sizes must fit the system.
func (e *Engine) Submit(j *job.Job) error {
	if j == nil {
		return fmt.Errorf("sim: Submit of nil job")
	}
	if j.Size > e.cfg.Nodes {
		return fmt.Errorf("sim: job %d size %d exceeds system %d", j.ID, j.Size, e.cfg.Nodes)
	}
	if e.lookup(j.ID) != nil {
		return fmt.Errorf("sim: duplicate job ID %d", j.ID)
	}
	if e.primed && j.SubmitTime < e.clk {
		return fmt.Errorf("sim: job %d submitted at t=%d, before the clock (t=%d)",
			j.ID, j.SubmitTime, e.clk)
	}
	if err := e.register(j); err != nil {
		return err
	}
	if !e.primed {
		e.jobs = append(e.jobs, j)
		return nil
	}
	if !e.cfg.ReleaseCompleted {
		e.jobs = append(e.jobs, j)
	}
	e.met.NoteSubmit(j.SubmitTime)
	e.pushArrival(j)
	return nil
}

// eventSource names where the next pending event lives; see peek.
type eventSource int8

const (
	fromNone   eventSource = iota // nothing pending
	fromPass                      // the requested scheduler pass
	fromPrimed                    // the primed cursor's head
	fromQueue                     // the event queue's minimum
)

// peek locates the earliest pending event across the engine's three sources
// — the requested scheduler pass, the primed cursor and the event queue —
// under the one (Time, Prio, Seq) dispatch order, and returns its key.
func (e *Engine) peek() (eventq.Key, eventSource) {
	var k eventq.Key
	src := fromNone
	if e.schedPending {
		k, src = eventq.Key{Time: e.clk, Prio: eventq.PrioSchedule, Seq: e.schedSeq}, fromPass
	}
	if e.nextPrimed < len(e.primedEvs) {
		if pk := e.primedEvs[e.nextPrimed].key; src == fromNone || pk.Before(k) {
			k, src = pk, fromPrimed
		}
	}
	if ev := e.q.Peek(); ev != nil {
		if ck := ev.Key(); src == fromNone || ck.Before(k) {
			k, src = ck, fromQueue
		}
	}
	return k, src
}

// Step processes the next pending event: the earliest, in (Time, Prio, Seq)
// order, of the requested scheduler pass, the primed arrivals and notices,
// and the event queue. It returns false when nothing is left to do: every
// submitted job has completed (more jobs may still be Submitted afterwards
// to continue the run). Nothing pending with incomplete jobs is a stall: the
// engine first tries to dissolve reservation hold deadlocks, then reports an
// error.
func (e *Engine) Step() (bool, error) {
	e.prime()
	if e.err != nil {
		return false, e.err
	}
	k, src := e.peek()
	if src == fromNone {
		if e.completed < e.registered {
			if e.breakHoldDeadlock() {
				return true, nil
			}
			return false, fmt.Errorf("sim: stalled with %d/%d jobs incomplete at t=%d",
				e.registered-e.completed, e.registered, e.clk)
		}
		return false, nil
	}
	if k.Time < e.clk {
		return false, fmt.Errorf("sim: time went backwards (%d < %d)", k.Time, e.clk)
	}
	if e.cfg.MaxSimTime > 0 && k.Time > e.cfg.MaxSimTime {
		return false, fmt.Errorf("sim: exceeded MaxSimTime at t=%d", k.Time)
	}
	e.met.NoteReserved(k.Time, e.cl.TotalReserved())
	e.met.NoteDown(k.Time, e.cl.DownCount())
	e.clk = k.Time
	e.dispatched++
	var what any // the dispatched payload, named in a Validate failure
	switch src {
	case fromPass:
		what = evSched{}
		e.schedPending = false
		e.schedulePass()
	case fromPrimed:
		pe := e.primedEvs[e.nextPrimed]
		e.primedEvs[e.nextPrimed] = primedEvent{} // a streamed run must not pin the job
		if e.nextPrimed++; e.nextPrimed == len(e.primedEvs) {
			e.primedEvs, e.nextPrimed = nil, 0
		}
		if pe.key.Prio == eventq.PrioNotice {
			what = evNotice{pe.j}
			e.handleNotice(pe.j)
		} else {
			what = evArrive{pe.j}
			e.handleArrive(pe.j)
		}
	case fromQueue:
		ev := e.q.Pop()
		what = ev.Payload
		e.dispatch(ev)
	}
	e.met.NoteReserved(e.clk, e.cl.TotalReserved())
	e.met.NoteDown(e.clk, e.cl.DownCount())
	if e.err != nil {
		return false, e.err
	}
	if e.cfg.Validate {
		if err := e.cl.CheckInvariant(); err != nil {
			return false, fmt.Errorf("sim: after %T at t=%d: %w", what, e.clk, err)
		}
	}
	return true, nil
}

// PeekTime returns the virtual time of the next pending event — the
// scheduler pass, a primed arrival or notice, or a queued event, whichever
// Step would dispatch next — or false when nothing is pending.
func (e *Engine) PeekTime() (int64, bool) {
	e.prime()
	k, src := e.peek()
	if src == fromNone {
		return 0, false
	}
	return k.Time, true
}

// AdvanceTo moves the virtual clock forward to t without processing events,
// keeping the reserved-idle integral exact. It refuses to jump over pending
// events: callers drain everything up to t (see Step/PeekTime) first.
func (e *Engine) AdvanceTo(t int64) error {
	e.prime()
	if t <= e.clk {
		return nil
	}
	if e.cfg.MaxSimTime > 0 && t > e.cfg.MaxSimTime {
		return fmt.Errorf("sim: exceeded MaxSimTime at t=%d", t)
	}
	if k, src := e.peek(); src != fromNone && k.Time <= t {
		return fmt.Errorf("sim: AdvanceTo(%d) would skip the event pending at t=%d", t, k.Time)
	}
	e.met.NoteReserved(t, e.cl.TotalReserved())
	e.met.NoteDown(t, e.cl.DownCount())
	e.clk = t
	return nil
}

// Run executes the simulation to completion and returns the metrics report.
func (e *Engine) Run() (metrics.Report, error) {
	for {
		more, err := e.Step()
		if err != nil {
			return e.met.Report(), err
		}
		if !more {
			return e.met.Report(), nil
		}
	}
}

// Report computes the metrics report over everything processed so far. It is
// safe to call mid-run; the returned report reflects completed jobs only.
func (e *Engine) Report() metrics.Report { return e.met.Report() }

// breakHoldDeadlock dissolves private reservations held for waiting jobs
// when the event queue drains with work outstanding. Directed returns can in
// rare cases mutually starve large waiting jobs; a production resource
// manager would time such holds out. Returns true if anything was released.
func (e *Engine) breakHoldDeadlock() bool {
	released := false
	for _, j := range e.queue.Jobs() {
		if e.cl.ReservedCount(j.ID) > 0 {
			e.cl.UnreserveAll(j.ID)
			released = true
		}
	}
	if released {
		e.requestSchedule()
	}
	return released
}

// fail records a fatal internal error, terminating the run.
func (e *Engine) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// Event payloads. evSched never enters the event queue: it names the pending
// scheduler pass in frames and in Validate failures.
type (
	evArrive struct{ j *job.Job }
	evNotice struct{ j *job.Job }
	evEnd    struct{ j *job.Job }
	evWarn   struct {
		j     *job.Job
		claim int
	}
	evTimer struct{ payload any }
	evSched struct{}
)

// dispatch handles an event popped from the event queue.
func (e *Engine) dispatch(ev *eventq.Event) {
	// Popped events are recycled once no reference can survive: arrivals and
	// notices hand out no handles, and an end or warning event is the job's
	// handle, which vacate withdraws. Timer events are never recycled — their
	// handles live with the mechanism, which may cancel them after firing.
	switch p := ev.Payload.(type) {
	case evArrive:
		e.handleArrive(p.j)
		e.q.Recycle(ev)
	case evNotice:
		e.handleNotice(p.j)
		e.q.Recycle(ev)
	case evEnd:
		e.handleEnd(p.j)
	case evWarn:
		e.handleWarnExpired(p.j, p.claim)
	case evTimer:
		e.mech.OnTimer(p.payload)
		e.requestSchedule()
	case evNodeDown:
		e.FailNode(p.node, p.repairAfter)
		// A pass follows every failure instant, as it follows every timer,
		// even a miss on a node already down (FailNode requests one only on
		// a change): under a time-dependent policy the re-sort alone can
		// start a new head.
		e.requestSchedule()
		e.q.Recycle(ev)
	case evNodeUp:
		e.handleNodeUp(p.nodes)
		e.q.Recycle(ev)
	case evDrainStart:
		e.handleDrainStart(p.d)
		e.q.Recycle(ev)
	case evDrainEnd:
		e.handleDrainEnd(p.d)
		e.q.Recycle(ev)
	default:
		e.fail("sim: unknown event payload %T", ev.Payload)
	}
}

func (e *Engine) handleArrive(j *job.Job) {
	j.State = job.Waiting
	e.emit(EventArrival, j, j.Size)
	if j.Class == job.OnDemand {
		stop := e.sw.Start()
		handled := e.mech.OnODArrival(j)
		e.met.NoteDecision(stop())
		if handled {
			e.requestSchedule()
			return
		}
	}
	e.enqueue(j)
	e.requestSchedule()
}

func (e *Engine) handleNotice(j *job.Job) {
	e.emit(EventNotice, j, j.Size)
	stop := e.sw.Start()
	e.mech.OnNotice(j)
	e.met.NoteDecision(stop())
	e.requestSchedule()
}

func (e *Engine) handleEnd(j *job.Job) {
	if j.State != job.Running && j.State != job.Warning {
		e.fail("sim: end event for job %d in state %v", j.ID, j.State)
		return
	}
	finalSize := j.CurSize
	var u job.Usage
	if j.Class == job.Malleable {
		u = j.FinalizeMalleableCompletion(e.clk)
	} else {
		u = j.FinalizeCompletion(e.clk)
	}
	e.emit(EventEnd, j, finalSize)
	e.met.AddUsage(u)
	e.met.NoteComplete(j)
	e.completed++
	// A job that completes inside its warning window withdraws the expiry
	// with its end event.
	freed := e.vacate(j)
	e.mech.OnJobCompleted(j, freed)
	e.requestSchedule()
	if e.cfg.ReleaseCompleted {
		e.dropEntry(j.ID)
	}
}

// dropEntry forgets a completed job's index entry (ReleaseCompleted).
func (e *Engine) dropEntry(id int) {
	if id >= 0 && id < len(e.dense) && e.dense[id].j != nil {
		e.dense[id] = jobEntry{}
		return
	}
	delete(e.sparse, id)
}

func (e *Engine) handleWarnExpired(j *job.Job, claim int) {
	if j.State != job.Warning {
		// Completed at this exact instant (end events dispatch first) or
		// state changed; nothing to reclaim.
		return
	}
	e.emit(EventPreempt, j, j.CurSize)
	u := j.FinalizeWarning(e.clk)
	e.met.AddUsage(u)
	freed := e.vacate(j)
	e.enqueue(j)
	e.mech.OnWarningExpired(j, claim, freed)
	e.requestSchedule()
}

// vacate takes a node-holding job off the machine: it withdraws the job's end
// and warning events, releases its nodes, takes it off the running set and
// returns the nodes it squatted on to their claims. It returns the nodes the
// release left in the free pool.
func (e *Engine) vacate(j *job.Job) *nodeset.Set {
	ent := e.mustEnt(j)
	e.withdraw(&ent.endEv)
	e.withdraw(&ent.warnEv)
	ent.running = false
	freed := e.cl.Release(j.ID)
	e.removeRunning(j.ID)
	e.restoreSquattedNodes(j.ID, freed)
	return freed
}

// withdraw cancels the event behind the handle *ev, if it has not fired,
// clears the handle and recycles the event.
func (e *Engine) withdraw(ev **eventq.Event) {
	if *ev != nil {
		e.q.Cancel(*ev)
		e.q.Recycle(*ev)
		*ev = nil
	}
}

func (e *Engine) enqueue(j *job.Job) {
	ent := e.mustEnt(j)
	if ent.inQueue {
		return
	}
	j.State = job.Waiting
	e.queue.Insert(j, e.clk)
	ent.inQueue = true
}

func (e *Engine) removeFromQueue(j *job.Job) {
	ent := e.mustEnt(j)
	if !ent.inQueue {
		return
	}
	e.queue.Remove(j, e.clk)
	ent.inQueue = false
}

// requestSchedule asks for a scheduler pass at the current instant, after
// every other event at it. The pass takes the sequence number a pushed event
// would, but stays out of the event queue: Step dispatches it from the flag.
func (e *Engine) requestSchedule() {
	if !e.schedPending {
		e.schedSeq = e.q.TakeSeq()
		e.schedPending = true
	}
}
