package hybridsched

import (
	"fmt"
	"slices"
	"sync"

	"hybridsched/internal/faults"
	"hybridsched/internal/job"
	"hybridsched/internal/metrics"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
	"hybridsched/internal/registry"
	"hybridsched/internal/runner"
	"hybridsched/internal/sim"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
)

// Job is the simulator's job object: the static trace record plus the live
// execution state (current size, lifecycle state, preemption counts).
// Schedulers receive *Job values through their callbacks; snapshots and
// events identify jobs by their IDs.
type Job = job.Job

// NodeSet is the allocation currency of the cluster: a set of node IDs.
type NodeSet = nodeset.Set

// Engine is the discrete-event simulation core. Custom Schedulers drive it
// through its resource primitives (StartOnDemand, PreemptRigid,
// ShrinkMalleable, ScheduleTimer, ...); see the internal/sim documentation.
type Engine = sim.Engine

// Scheduler is the plug-in interface for scheduling logic — the public name
// of the engine's mechanism extension point. Implementations receive the
// engine's callbacks (notices, arrivals, completions, timers) and respond
// using its resource primitives. Embed Baseline to inherit no-op defaults
// and override only the callbacks you need.
type Scheduler = sim.Mechanism

// Baseline is the no-mechanism FCFS/EASY scheduler (paper Table II). It also
// serves as an embeddable base for custom Schedulers.
type Baseline = sim.Baseline

// QueuePolicy orders the waiting queue. Implementations registered with
// RegisterPolicy are usable by name wherever fcfs/sjf/ljf/wfp3 are.
type QueuePolicy = policy.Ordering

// SchedulerConfig carries the system knobs handed to a SchedulerFactory.
type SchedulerConfig = registry.SchedulerConfig

// SchedulerFactory builds a fresh Scheduler instance for one run.
type SchedulerFactory = registry.SchedulerFactory

// Event is one typed scheduling event: a job arrival, advance notice, start,
// end, preemption warning, preemption, shrink, expand, checkpoint rollback,
// or a node-availability change (nodes leaving or rejoining service), stamped
// with the virtual time and the job's identity. Node-availability events
// carry no job: their Job field is -1.
type Event = sim.Event

// EventType classifies an Event.
type EventType = sim.EventType

// The event vocabulary (see the sim package for per-type semantics).
const (
	EventArrival    = sim.EventArrival
	EventNotice     = sim.EventNotice
	EventStart      = sim.EventStart
	EventEnd        = sim.EventEnd
	EventWarning    = sim.EventWarning
	EventPreempt    = sim.EventPreempt
	EventShrink     = sim.EventShrink
	EventExpand     = sim.EventExpand
	EventCheckpoint = sim.EventCheckpoint
	// EventNodeDown reports nodes leaving service: a failure under repair, or
	// a maintenance drain absorbing freed capacity (Nodes = count).
	EventNodeDown = sim.EventNodeDown
	// EventNodeUp reports nodes returning to service after a repair or at the
	// end of a maintenance window.
	EventNodeUp = sim.EventNodeUp
	// EventDrain reports a maintenance window opening (Nodes = requested
	// count; the nodes actually absorbed arrive as EventNodeDown events).
	EventDrain = sim.EventDrain
)

// Observer receives every scheduling event synchronously, in dispatch order,
// as the session processes it. Handlers run on the goroutine driving the
// session and must not call back into it.
type Observer interface {
	HandleEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// HandleEvent calls f.
func (f ObserverFunc) HandleEvent(ev Event) { f(ev) }

// MetricsSnapshot is the live measurement ledger inside a Snapshot.
type MetricsSnapshot = metrics.Snapshot

// JobStatus describes one job inside a Snapshot.
type JobStatus struct {
	ID      int
	Class   JobClass
	State   string // waiting, running, warning
	Size    int    // requested (maximum) size
	CurSize int    // nodes currently held (0 while waiting)
	Submit  int64
	Start   int64 // first start (-1 before)
}

// Snapshot is a point-in-time view of a running session: the virtual clock,
// the cluster occupancy, the waiting queue, the running set, and the live
// metrics ledger. Taking a snapshot never disturbs the simulation.
type Snapshot struct {
	Now int64

	Nodes         int
	FreeNodes     int
	ReservedNodes int
	BusyNodes     int
	DownNodes     int // out of service: failed under repair, or drained

	Submitted  int
	Completed  int
	QueueDepth int

	Running []JobStatus // sorted by job ID
	Queued  []JobStatus // in current queue order

	Metrics MetricsSnapshot
}

// RegisterScheduler makes factory resolvable by name everywhere mechanism
// names are accepted: Simulate, NewSession(WithMechanism), RunSweep, and the
// CLI tools. Registration is append-only and fails on a duplicate or
// built-in name. Factories must return a fresh instance per call — sweep
// cells run concurrently.
func RegisterScheduler(name string, factory SchedulerFactory) error {
	return registry.RegisterScheduler(name, factory)
}

// RegisterPolicy makes ord resolvable by its Name() everywhere queue-policy
// names are accepted. Registration is append-only and fails on a duplicate
// or built-in name. Orderings must be stateless or safe for concurrent use.
func RegisterPolicy(ord QueuePolicy) error { return registry.RegisterPolicy(ord) }

// SchedulerNames returns every scheduler name Simulate, sessions, and sweeps
// resolve: "baseline", the paper's six mechanisms, then registered
// extensions.
func SchedulerNames() []string { return registry.SchedulerNames() }

// PolicyNames returns every resolvable queue-policy name.
func PolicyNames() []string { return registry.PolicyNames() }

// sessionConfig is the option set of one session: the engine recipe and the
// session's own attachments.
type sessionConfig struct {
	recipe    runner.Recipe
	lookahead int64
	sources   []Source
	observers []Observer
}

// Option configures a Session under construction.
type Option func(*sessionConfig)

// WithConfig seeds every knob from a legacy SimulationConfig. Options
// applied after it override individual fields.
func WithConfig(cfg SimulationConfig) Option {
	return func(c *sessionConfig) { c.recipe = cfg.applyTo(c.recipe) }
}

// WithNodes sets the system size (default 4392, Theta).
func WithNodes(n int) Option {
	return func(c *sessionConfig) { c.recipe.Nodes = n }
}

// WithMechanism selects the scheduler by name: "baseline", one of the six
// paper mechanisms, or a name registered with RegisterScheduler. Default
// "CUA&SPAA".
func WithMechanism(name string) Option {
	return func(c *sessionConfig) { c.recipe.Mechanism = name }
}

// WithScheduler installs a Scheduler instance directly, bypassing name
// resolution. The instance is wired to this session's engine and must not be
// reused across sessions.
func WithScheduler(s Scheduler) Option {
	return func(c *sessionConfig) { c.recipe.Scheduler = s }
}

// WithPolicy selects the waiting-queue ordering by name: fcfs (default),
// sjf, ljf, wfp3, or a name registered with RegisterPolicy.
func WithPolicy(name string) Option {
	return func(c *sessionConfig) { c.recipe.Policy = name }
}

// WithMTBF sets the system mean time between failures in seconds, driving
// Daly's optimal checkpoint interval (default 24 h).
func WithMTBF(seconds float64) Option {
	return func(c *sessionConfig) { c.recipe.MTBF = seconds }
}

// WithCheckpointFreqMult scales the rigid-job checkpoint interval around the
// Daly optimum (Fig. 7): 0.5 checkpoints twice as often, 1.0 (the default)
// is optimal. Unlike the SimulationConfig field, an explicit 0 is honored
// and disables defensive checkpointing entirely.
func WithCheckpointFreqMult(m float64) Option {
	return func(c *sessionConfig) {
		if m <= 0 {
			m = -1 // survives WithDefaults as an explicit zero
		}
		c.recipe.CkptFreqMult = m
	}
}

// WithReleaseThreshold sets how long reserved nodes are held for a no-show
// on-demand job past its estimated arrival (default 600 s). Unlike the
// SimulationConfig field, an explicit 0 is honored: reservations dissolve
// the instant the estimated arrival passes.
func WithReleaseThreshold(seconds int64) Option {
	return func(c *sessionConfig) {
		if seconds <= 0 {
			seconds = -1 // read as an explicit zero, not the default
		}
		c.recipe.ReleaseThreshold = seconds
	}
}

// WithBackfillReserved lets backfill jobs run on reserved nodes, to be
// preempted on the on-demand arrival (paper §III-B.1 option).
func WithBackfillReserved(on bool) Option {
	return func(c *sessionConfig) { c.recipe.BackfillReserved = on }
}

// WithDirectedReturn toggles the return-to-lender rule (§III-B.3); it is on
// by default.
func WithDirectedReturn(on bool) Option {
	return func(c *sessionConfig) { c.recipe.NoDirectedReturn = !on }
}

// WithValidate checks the cluster partition invariant after every event and
// every scheduler pass against a plan computed from scratch, failing the run
// on a mismatch (for tests; slows long runs down). The checks only read, so
// they change no output.
func WithValidate(on bool) Option {
	return func(c *sessionConfig) { c.recipe.Validate = on }
}

// WithMaxSimTime aborts the session if the virtual clock passes this bound
// (0 = none). A safety net for user-driven schedulers that might stall.
func WithMaxSimTime(t int64) Option {
	return func(c *sessionConfig) { c.recipe.MaxSimTime = t }
}

// DefaultSourceLookahead is how far past the next pending event a session
// draws records from its attached Sources, in virtual seconds. The window
// exists for advance notices: a record must be drawn before its notice
// instant passes, and notices precede arrivals by up to the notice lead
// (15–30 minutes in the paper's workloads), so one hour covers them with
// room to spare while still keeping multi-week trace files on disk.
const DefaultSourceLookahead = Hour

// WithSourceLookahead sets how far past the next pending event attached
// Sources are drawn (default DefaultSourceLookahead). Raise it when replaying
// workloads whose advance-notice leads exceed an hour — a record drawn after
// its notice instant has its notice clamped to the current virtual time. An
// explicit 0 (or negative) draws records only once the clock is about to
// reach them, trading notice fidelity for the tightest possible buffering.
func WithSourceLookahead(seconds int64) Option {
	return func(c *sessionConfig) {
		if seconds <= 0 {
			seconds = -1 // survives the default fill as an explicit zero
		}
		c.lookahead = seconds
	}
}

// WithSource attaches src at construction time, equivalent to calling
// SubmitSource on the new session.
func WithSource(src Source) Option {
	return func(c *sessionConfig) { c.sources = append(c.sources, src) }
}

// WithObserver attaches an observer that receives every scheduling event
// synchronously. Multiple observers are delivered to in attach order.
func WithObserver(o Observer) Option {
	return func(c *sessionConfig) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}
}

// FaultConfig parameterizes session-level fault injection: the system MTBF
// driving an exponential failure timeline, the seed it derives from, the
// timeline horizon, and the node repair-time distribution (MeanRepair = 0
// keeps the legacy instant-repair shortcut, where capacity never shrinks).
// See the internal faults package for field semantics.
type FaultConfig = faults.Config

// DrainSpec is one scheduled maintenance window: starting at Start (virtual
// seconds), up to Nodes nodes are taken out of service — free nodes
// immediately, more as running jobs release capacity — and everything
// absorbed returns at Start+Duration. Drains never preempt running jobs.
// It aliases the sweep runner's spec type, so SweepSpec.Drains and the
// experiment grids share one definition.
type DrainSpec = runner.DrainSpec

// WithFaults wraps the session's scheduler in the fault injector: node
// failures strike uniformly random nodes on an exponential timeline, each
// interrupting whatever job holds the node, and (with cfg.MeanRepair set)
// removing the node from service for a drawn repair time. The whole
// timeline — instants, nodes, and repair times — is drawn when the session
// is built and scheduled as engine failure events, so a Checkpoint carries
// every pending failure, whatever cfg.RepairTime is. The observable
// consequences stream as EventPreempt/EventNodeDown/EventNodeUp events, and
// the run's Report carries FailuresInjected/FailureMisses/DownNodeSeconds.
func WithFaults(cfg FaultConfig) Option {
	return func(c *sessionConfig) { c.recipe.Faults = &cfg }
}

// WithDrain schedules a maintenance window on the new session (repeatable;
// windows may overlap). Capacity the drain absorbs disappears from every
// scheduler pass until the window closes.
func WithDrain(start, duration int64, nodes int) Option {
	return func(c *sessionConfig) {
		c.recipe.Drains = append(c.recipe.Drains, DrainSpec{Start: start, Duration: duration, Nodes: nodes})
	}
}

// eventChanBuffer is the capacity of each Events() channel. Events that
// would overflow a full channel are dropped (see Session.DroppedEvents) so a
// single-goroutine submit/step/drain loop can never deadlock on itself.
const eventChanBuffer = 4096

// Session is an incremental simulation: a live scheduler instance that
// accepts job submissions at any virtual time, advances event by event, and
// exposes its state while running.
//
// The lifecycle is construct → observe → submit/step → snapshot → report:
//
//	s, _ := hybridsched.NewSession(hybridsched.WithMechanism("CUA&SPAA"))
//	events := s.Events()
//	for _, r := range records {
//		s.Submit(r)
//	}
//	for hour := int64(1); ; hour++ {
//		if err := s.RunUntil(hour * 3600); err != nil {
//			break
//		}
//		snap := s.Snapshot()
//		fmt.Printf("t=%dh util=%.1f%% queue=%d\n",
//			hour, 100*snap.Metrics.Utilization, snap.QueueDepth)
//		if snap.Completed == snap.Submitted {
//			break
//		}
//	}
//	report := s.Report()
//
// A Session is not safe for concurrent use: Submit, Step, RunUntil, Run,
// Snapshot, and Events must be called from one goroutine. The exceptions are
// the event-consumption surface: the channels Events returns may be drained
// from any goroutine, and Close, CloseEvents, DroppedEvents and
// DroppedEventsOf may be called from any goroutine — including concurrently
// with a run in progress and with readers blocked on an Events channel (they
// observe the close and drain out).
type Session struct {
	eng    *sim.Engine
	recipe runner.Recipe // what the engine was built from, defaults filled in
	obs    []Observer
	sinkOn bool // engine sink installed (lazily, on first observer)

	// evMu guards the event fan-out surface (chans, drops, closed), the only
	// session state shared across goroutines: emit runs on the driving
	// goroutine while Close and the drop-count reads may run on any other.
	evMu   sync.Mutex
	chans  []eventChan
	drops  int
	closed bool

	srcs      []sourceState
	lookahead int64
}

// eventChan is one channel Events returned, with the events dropped from it.
type eventChan struct {
	ch    chan Event
	drops int
}

// sourceState tracks one attached Source: its buffered head record (drawn
// but not yet submitted), whether the stream is exhausted, and the last
// submit instant seen (to enforce the non-decreasing-order contract).
type sourceState struct {
	src     Source
	pending Record
	has     bool
	done    bool
	last    int64
}

// NewSession builds a live simulation from functional options; the zero
// option set is the paper-faithful default system (4392 nodes, CUA&SPAA,
// FCFS/EASY, 24 h MTBF, Daly-optimal checkpointing). Jobs are injected with
// Submit; the clock advances through Step, RunUntil, or Run.
func NewSession(opts ...Option) (*Session, error) {
	var c sessionConfig
	for _, opt := range opts {
		opt(&c)
	}
	c.recipe = c.recipe.WithDefaults()
	return c.session()
}

// session builds the engine from the recipe, which must be complete, and
// attaches the observers and sources.
func (c sessionConfig) session() (*Session, error) {
	eng, err := c.recipe.Build(nil)
	if err != nil {
		return nil, fmt.Errorf("hybridsched: %w", err)
	}
	lookahead := c.lookahead
	if lookahead == 0 {
		lookahead = DefaultSourceLookahead
	} else if lookahead < 0 {
		lookahead = 0
	}
	s := &Session{eng: eng, recipe: c.recipe, obs: c.observers, lookahead: lookahead}
	// The sink is installed only once someone listens: an unobserved session
	// pays nothing per event — the engine skips constructing and fanning out
	// Event values entirely.
	if len(s.obs) > 0 {
		s.installSink()
	}
	for _, src := range c.sources {
		if err := s.SubmitSource(src); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Names returns the scheduler and queue-policy names the session runs, the
// defaults filled in; a WithScheduler instance is named by its Name.
func (s *Session) Names() (mechanism, policy string) {
	if m := s.recipe.Scheduler; m != nil {
		return m.Name(), s.recipe.Policy
	}
	return s.recipe.Mechanism, s.recipe.Policy
}

// installSink wires the session's fan-out into the engine (idempotent).
func (s *Session) installSink() {
	if !s.sinkOn {
		s.sinkOn = true
		s.eng.SetEventSink(s.emit)
	}
}

// emit fans one engine event out to the observers and event channels.
// After Close the session emits nothing, matching the Close contract.
func (s *Session) emit(ev Event) {
	s.evMu.Lock()
	if s.closed {
		s.evMu.Unlock()
		return
	}
	for i := range s.chans {
		select {
		case s.chans[i].ch <- ev:
		default:
			s.chans[i].drops++
			s.drops++
		}
	}
	s.evMu.Unlock()
	// Observers run outside the lock: they execute on the driving goroutine
	// by contract and may take as long as they like without holding Close up.
	for _, o := range s.obs {
		o.HandleEvent(ev)
	}
}

// Submit injects one job into the session. Before the first clock advance
// submissions in any order form the initial trace; afterwards the record's
// Submit time must not lie before the current virtual time (Now). The job's
// advance notice, if any, fires at its notice time (clamped to Now).
//
// Records are validated on submission (MinSize on a fixed-size job is
// normalized to Size first, since the simulator ignores it); malformed
// records fail fast with a descriptive error instead of corrupting the run.
func (s *Session) Submit(r Record) error {
	r, err := r.Normalize()
	if err != nil {
		return err
	}
	return s.eng.Submit(trace.Materialize([]Record{r}, s.recipe.Plan)[0])
}

// SubmitSource attaches src to the session: its records are drawn lazily as
// virtual time advances — each record is submitted just before the clock
// would reach it (plus the source lookahead, see WithSourceLookahead) — so a
// multi-week trace file streams from disk instead of being slurped up front,
// and mid-run arrival semantics are preserved exactly. A record drawn from a
// source behaves identically to the same record passed to Submit at the same
// instant; feeding Synthetic(cfg) to a fresh session and calling Run
// reproduces Simulate(cfg, GenerateWorkload(cfg)) byte for byte.
//
// Sources must yield records in non-decreasing Submit order (wrap unsorted
// inputs in SortSource); an out-of-order record fails the run with a
// submitted-before-the-clock error. Multiple sources may be attached — they
// interleave in time order like Merge, but without Merge's ID renumbering,
// so attach sources with disjoint job IDs or merge them first. More sources
// may be attached while the session runs.
func (s *Session) SubmitSource(src Source) error {
	if src == nil {
		return fmt.Errorf("hybridsched: SubmitSource of nil source")
	}
	s.srcs = append(s.srcs, sourceState{src: src})
	return nil
}

// fill draws the next record into st.pending if the buffer is empty.
func (st *sourceState) fill() error {
	if st.has || st.done {
		return nil
	}
	r, ok, err := st.src.Next()
	if err != nil {
		st.done = true
		return fmt.Errorf("hybridsched: source: %w", err)
	}
	if !ok {
		st.done = true
		return nil
	}
	if r.Submit < st.last {
		st.done = true
		return fmt.Errorf("hybridsched: source yields records out of order: job %d at t=%d after t=%d (wrap unsorted inputs in SortSource)",
			r.ID, r.Submit, st.last)
	}
	st.last = r.Submit
	st.pending, st.has = r, true
	return nil
}

// sourcesDrained reports whether every attached source is exhausted with no
// record left in its buffer.
func (s *Session) sourcesDrained() bool {
	for i := range s.srcs {
		if s.srcs[i].has || !s.srcs[i].done {
			return false
		}
	}
	return true
}

// pump submits every source record due before the next pending event (plus
// the lookahead window, so advance notices are scheduled before their fire
// time). When the engine has no pending events at all, the earliest pending
// record is submitted unconditionally — it is the next thing to happen.
// Sources are consumed in record Submit order, ties resolving to the earlier
// attached source, which keeps lazy submission byte-equivalent to
// pre-submitting the same records in sorted order.
func (s *Session) pump() error {
	for {
		best := -1
		for i := range s.srcs {
			if err := s.srcs[i].fill(); err != nil {
				return err
			}
			if s.srcs[i].has && (best < 0 || s.srcs[i].pending.Submit < s.srcs[best].pending.Submit) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if next, ok := s.eng.PeekTime(); ok && s.srcs[best].pending.Submit > next+s.lookahead {
			return nil
		}
		if err := s.Submit(s.srcs[best].pending); err != nil {
			return err
		}
		s.srcs[best].has = false
	}
}

// Now returns the current virtual time in seconds.
func (s *Session) Now() int64 { return s.eng.Now() }

// Step processes the next pending event and returns true, first drawing any
// source records that are due. It returns false when every submitted job has
// completed, no events remain, and every attached source is drained; the
// session stays live, so more jobs (or sources) can be submitted and
// stepping resumed. A drained event queue with incomplete jobs reports a
// stall error.
func (s *Session) Step() (bool, error) {
	if err := s.pump(); err != nil {
		return false, err
	}
	return s.eng.Step()
}

// RunUntil advances the session to virtual time t: every event at or before
// t is processed (drawing source records as they come due) and the clock
// lands exactly on t (so periodic snapshots align with wall boundaries). It
// never runs ahead — events after t stay pending.
func (s *Session) RunUntil(t int64) error {
	for {
		if err := s.pump(); err != nil {
			return err
		}
		next, ok := s.eng.PeekTime()
		if !ok {
			// Drained queue with incomplete jobs is a stall: let the engine
			// run its handling (hold-deadlock dissolution, or the stall
			// error) rather than silently advancing past a wedged schedule.
			if s.eng.CompletedCount() < s.eng.SubmittedCount() {
				more, err := s.eng.Step()
				if err != nil {
					return err
				}
				if more {
					continue
				}
			}
			break
		}
		if next > t {
			break
		}
		if _, err := s.eng.Step(); err != nil {
			return err
		}
	}
	return s.eng.AdvanceTo(t)
}

// Run drives the session until every submitted job has completed and every
// attached source is drained, closes the event channels, and returns the
// final report. With all records submitted up front it is equivalent to
// Simulate; with sources attached it is the streaming equivalent.
func (s *Session) Run() (Report, error) {
	for {
		if err := s.pump(); err != nil {
			s.Close()
			return s.eng.Report(), err
		}
		more, err := s.eng.Step()
		if err != nil {
			s.Close()
			return s.eng.Report(), err
		}
		if !more && s.sourcesDrained() {
			break
		}
	}
	rep := s.eng.Report()
	s.Close()
	return rep, nil
}

// Report computes the measurement report over everything processed so far.
// It is safe to call mid-run; only completed jobs contribute.
func (s *Session) Report() Report { return s.eng.Report() }

// Snapshot captures the live state: clock, cluster occupancy, queue,
// running set, and the metrics ledger. It never disturbs the run.
func (s *Session) Snapshot() Snapshot {
	eng := s.eng
	cl := eng.Cluster()
	snap := Snapshot{
		Now:           eng.Now(),
		Nodes:         eng.Nodes(),
		FreeNodes:     cl.FreeCount(),
		ReservedNodes: cl.TotalReserved(),
		DownNodes:     cl.DownCount(),
		Submitted:     eng.SubmittedCount(),
		Completed:     eng.CompletedCount(),
		QueueDepth:    eng.QueueDepth(),
		Metrics:       eng.Metrics().Snapshot(eng.Now()),
	}
	snap.BusyNodes = snap.Nodes - snap.FreeNodes - snap.ReservedNodes - snap.DownNodes
	for _, j := range eng.RunningAll() {
		snap.Running = append(snap.Running, jobStatus(j))
	}
	for _, j := range eng.QueuedJobs() {
		snap.Queued = append(snap.Queued, jobStatus(j))
	}
	return snap
}

func jobStatus(j *Job) JobStatus {
	return JobStatus{
		ID:      j.ID,
		Class:   j.Class,
		State:   j.State.String(),
		Size:    j.Size,
		CurSize: j.CurSize,
		Submit:  j.SubmitTime,
		Start:   j.StartTime,
	}
}

// Events returns a channel streaming every scheduling event the session
// processes from now on. The channel is closed by Run or Close; calling
// Events on a closed session returns an already-closed channel.
//
// Overflow contract: the channel is buffered to eventChanBuffer (4096)
// events. Delivery never blocks the simulation — an event that finds the
// buffer full is dropped from that channel, not delayed, so a consumer that
// falls more than eventChanBuffer events behind sees a gap in the stream.
// Every such discard is counted by DroppedEvents (summed across all Events
// channels) and by DroppedEventsOf for the channel it was dropped from.
// Consumers that need a loss signal — live dashboards, the schedd SSE
// bridge — should poll DroppedEventsOf their channel and surface the count;
// consumers that need every event must either drain promptly or attach a
// synchronous Observer instead, which receives the complete stream by
// construction.
//
// Events must be called from the goroutine driving the session (it installs
// the engine sink); the returned channel may be drained from any goroutine.
// A consumer that stops reading before the session ends should detach its
// channel with CloseEvents, or the full buffer counts a drop per event.
func (s *Session) Events() <-chan Event {
	ch := make(chan Event, eventChanBuffer)
	s.evMu.Lock()
	if s.closed {
		s.evMu.Unlock()
		close(ch)
		return ch
	}
	s.chans = append(s.chans, eventChan{ch: ch})
	s.evMu.Unlock()
	s.installSink()
	return ch
}

// CloseEvents detaches one channel returned by Events and closes it: the
// session stops delivering to it, so a consumer that leaves stops holding a
// buffer and stops counting drops. A channel already closed or detached is
// left alone. Safe to call from any goroutine, as Close is.
func (s *Session) CloseEvents(ch <-chan Event) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.closed {
		return
	}
	for i, c := range s.chans {
		if c.ch == ch {
			s.chans = slices.Delete(s.chans, i, i+1)
			close(c.ch)
			return
		}
	}
}

// DroppedEvents reports how many events were discarded because an Events
// channel was full, summed over all channels for the session's lifetime.
// It never resets, so a delta between two reads bounds the loss in between.
// Safe to call from any goroutine.
func (s *Session) DroppedEvents() int {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.drops
}

// DroppedEventsOf reports how many events were discarded because ch, a
// channel returned by Events, was full: DroppedEvents for that channel
// alone, so a consumer that keeps up reads 0 however far behind another
// falls. A channel CloseEvents detached reads 0; one Close closed keeps its
// count. Safe to call from any goroutine.
func (s *Session) DroppedEventsOf(ch <-chan Event) int {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	for _, c := range s.chans {
		if c.ch == ch {
			return c.drops
		}
	}
	return 0
}

// Close closes all Events channels. The session remains queryable (Report,
// Snapshot) but emits no further events. Close is idempotent and safe to
// call from any goroutine — including concurrently with a second Close,
// with readers blocked on an Events channel (they are woken by the close),
// and with a run in progress on the driving goroutine.
func (s *Session) Close() {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	// The closed channels stay listed, so DroppedEventsOf still reads their
	// counts; nothing is delivered after Close.
	for _, c := range s.chans {
		close(c.ch)
	}
}

// Hour is one simulated hour in seconds, a convenience for RunUntil loops.
const Hour = simtime.Hour
