package sim

import (
	"fmt"
	"slices"

	"hybridsched/internal/cluster"
	"hybridsched/internal/eventq"
	"hybridsched/internal/job"
	"hybridsched/internal/metrics"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
	"hybridsched/internal/snapshot"
)

// EngineSnapshotVersion is the format version of Engine.Snapshot frames.
// Bump it on any layout change; LoadSnapshot rejects other versions.
// Version 2: fault-injected runs carry their pending failures as node-down
// events and the injector no longer appends state of its own.
const EngineSnapshotVersion uint32 = 2

// SnapshotMechanism is the optional mechanism extension that makes a run
// checkpointable. A mechanism implements it by serializing its private
// dynamic state (pending collections, loans, timer handles by sequence
// number) and by encoding/decoding the opaque payloads of the timer events it
// scheduled. Engine.Snapshot fails when the attached mechanism does not
// implement it, so partially-captured state can never be written. Wrapping
// mechanisms (the fault injector) implement it by handing every call to the
// wrapped mechanism.
type SnapshotMechanism interface {
	Mechanism
	// EncodeSnapshotState appends the mechanism's dynamic state. It must not
	// mutate anything, and must produce identical bytes for identical state.
	EncodeSnapshotState(e *snapshot.Enc) error
	// DecodeSnapshotState restores state written by EncodeSnapshotState. It
	// runs after the event queue has been rebuilt, so timer handles can be
	// re-linked through the RestoreContext. Implementations must either
	// restore completely or leave the mechanism unchanged.
	DecodeSnapshotState(d *snapshot.Dec, rc *RestoreContext) error
	// EncodeTimerPayload appends one timer payload previously passed to
	// ScheduleTimer. Unknown payloads are an error.
	EncodeTimerPayload(e *snapshot.Enc, payload any) error
	// DecodeTimerPayload reads one payload written by EncodeTimerPayload.
	DecodeTimerPayload(d *snapshot.Dec) (any, error)
}

// RestoreContext lets a mechanism re-link restored state to the rebuilt
// engine structures during DecodeSnapshotState.
type RestoreContext struct {
	jobs   map[int]*job.Job
	events map[uint64]*eventq.Event
}

// Event resolves a pending event by the sequence number captured at encode
// time (Event.Seq).
func (rc *RestoreContext) Event(seq uint64) (*eventq.Event, bool) {
	ev, ok := rc.events[seq]
	return ev, ok
}

// JobByID resolves a restored job by ID.
func (rc *RestoreContext) JobByID(id int) (*job.Job, bool) {
	j, ok := rc.jobs[id]
	return j, ok
}

// Event payload tags in the serialized queue.
const (
	evTagArrive uint8 = iota + 1
	evTagNotice
	evTagEnd
	evTagWarn
	evTagTimer
	evTagSched
	evTagNodeDown
	evTagNodeUp
	evTagDrainStart
	evTagDrainEnd
)

// Snapshot serializes the complete engine state — clock, jobs, waiting queue,
// running set, cluster partition (including the DOWN pool), open and pending
// drain windows, the full event queue with sequence numbers, metrics
// accumulators, and the mechanism's private state — into a versioned,
// length-prefixed, CRC-checked frame. Restoring the frame with LoadSnapshot
// into an identically configured engine continues the run byte-identically.
//
// Snapshot never mutates the engine, so interleaving snapshots with Step
// calls cannot perturb a run. It fails on an engine that has already failed,
// and on mechanisms that do not implement SnapshotMechanism.
func (e *Engine) Snapshot() ([]byte, error) {
	if e.err != nil {
		return nil, fmt.Errorf("sim: snapshot of failed engine: %w", e.err)
	}
	if e.cfg.ReleaseCompleted {
		return nil, fmt.Errorf("sim: ReleaseCompleted engines forget completed jobs and cannot snapshot")
	}
	sm, ok := e.mech.(SnapshotMechanism)
	if !ok {
		return nil, fmt.Errorf("sim: mechanism %q does not support snapshots", e.mech.Name())
	}

	var enc snapshot.Enc

	// Configuration echo, verified on load.
	enc.Int(e.cfg.Nodes)
	enc.String(e.cfg.Policy.Name())
	enc.Bool(e.cfg.BackfillReserved)
	enc.I64(e.cfg.MaxSimTime)
	enc.Bool(false) // the retired reference-path flag, kept so version-2 frames still load
	enc.String(e.mech.Name())

	// Scalar run state.
	enc.I64(e.clk)
	enc.Int(e.completed)
	enc.Int(e.dispatched)
	enc.Bool(e.primed)
	enc.Bool(e.schedPending)

	// Jobs, in registration order (static description + dynamic state).
	enc.U32(uint32(len(e.jobs)))
	for _, j := range e.jobs {
		j.EncodeSnapshot(&enc)
	}

	// Waiting queue and running set, by job ID, order preserved verbatim.
	enc.Ints(jobIDs(e.queue.Jobs()))
	enc.Ints(jobIDs(e.running))

	e.cl.EncodeSnapshot(&enc)
	e.met.EncodeSnapshot(&enc)

	// Every pending event in dispatch order: the calendar's events, the
	// primed cursor's undispatched arrivals and notices, and the requested
	// scheduler pass, merged under the one (Time, Prio, Seq) order, so a
	// frame reads the same whichever source an event waits in.
	cal := e.q.Ordered()
	events := make([]pendingEvent, 0, len(cal)+len(e.primedEvs)-e.nextPrimed+1)
	for _, ev := range cal {
		events = append(events, pendingEvent{ev.Key(), ev.Payload})
	}
	for _, pe := range e.primedEvs[e.nextPrimed:] {
		if pe.key.Prio == eventq.PrioNotice {
			events = append(events, pendingEvent{pe.key, evNotice{pe.j}})
		} else {
			events = append(events, pendingEvent{pe.key, evArrive{pe.j}})
		}
	}
	if e.schedPending {
		events = append(events, pendingEvent{eventq.Key{Time: e.clk, Prio: eventq.PrioSchedule, Seq: e.schedSeq}, evSched{}})
	}
	slices.SortFunc(events, func(a, b pendingEvent) int { return a.key.Compare(b.key) })

	// Drain windows. Payload pointers are shared between the open-window list
	// and the pending start/end events, so windows serialize once into an
	// indexed table (first-reference order over the queue in dispatch order)
	// and everything else refers to table positions.
	drainIdx := make(map[*drainWindow]int)
	var drainTab []*drainWindow
	for _, ev := range events {
		var d *drainWindow
		switch p := ev.payload.(type) {
		case evDrainStart:
			d = p.d
		case evDrainEnd:
			d = p.d
		default:
			continue
		}
		if _, seen := drainIdx[d]; !seen {
			drainIdx[d] = len(drainTab)
			drainTab = append(drainTab, d)
		}
	}
	enc.U32(uint32(len(drainTab)))
	for _, d := range drainTab {
		enc.Int(d.want)
		d.taken.EncodeSnapshot(&enc)
		enc.I64(d.end)
	}
	open := make([]int, len(e.drains))
	for i, d := range e.drains {
		idx, seen := drainIdx[d]
		if !seen {
			return nil, fmt.Errorf("sim: open drain window (end t=%d) has no pending close event", d.end)
		}
		open[i] = idx
	}
	enc.Ints(open)

	// Reserved-squatting bookkeeping, sorted for determinism.
	enc.Ints(sortedKeysBool(e.backfillable))
	squatIDs := make([]int, 0, len(e.squats))
	for id := range e.squats {
		squatIDs = append(squatIDs, id)
	}
	sortInts(squatIDs)
	enc.U32(uint32(len(squatIDs)))
	for _, id := range squatIDs {
		enc.Int(id)
		list := e.squats[id]
		enc.U32(uint32(len(list)))
		for _, s := range list {
			enc.Int(s.claim)
			s.nodes.EncodeSnapshot(&enc)
		}
	}
	claims := make([]int, 0, len(e.squatted))
	for c := range e.squatted {
		claims = append(claims, c)
	}
	sortInts(claims)
	enc.U32(uint32(len(claims)))
	for _, c := range claims {
		enc.Int(c)
		enc.Int(e.squatted[c])
	}

	// The event queue: sequence counter, then every pending event in dispatch
	// order with its original sequence number.
	enc.U64(e.q.SeqCounter())
	enc.U32(uint32(len(events)))
	for _, ev := range events {
		enc.I64(ev.key.Time)
		enc.U8(uint8(ev.key.Prio))
		enc.U64(ev.key.Seq)
		switch p := ev.payload.(type) {
		case evArrive:
			enc.U8(evTagArrive)
			enc.Int(p.j.ID)
		case evNotice:
			enc.U8(evTagNotice)
			enc.Int(p.j.ID)
		case evEnd:
			enc.U8(evTagEnd)
			enc.Int(p.j.ID)
		case evWarn:
			enc.U8(evTagWarn)
			enc.Int(p.j.ID)
			enc.Int(p.claim)
		case evTimer:
			enc.U8(evTagTimer)
			if err := sm.EncodeTimerPayload(&enc, p.payload); err != nil {
				return nil, err
			}
		case evSched:
			enc.U8(evTagSched)
		case evNodeDown:
			enc.U8(evTagNodeDown)
			enc.Int(p.node)
			enc.I64(p.repairAfter)
		case evNodeUp:
			enc.U8(evTagNodeUp)
			p.nodes.EncodeSnapshot(&enc)
		case evDrainStart:
			enc.U8(evTagDrainStart)
			enc.Int(drainIdx[p.d])
		case evDrainEnd:
			enc.U8(evTagDrainEnd)
			enc.Int(drainIdx[p.d])
		default:
			return nil, fmt.Errorf("sim: unserializable event payload %T", ev.payload)
		}
	}

	// Mechanism state last, so its decode can re-link against everything else.
	if err := sm.EncodeSnapshotState(&enc); err != nil {
		return nil, err
	}

	return snapshot.Frame(EngineSnapshotVersion, enc.Bytes()), nil
}

// pendingEvent is one entry of a frame's event list.
type pendingEvent struct {
	key     eventq.Key
	payload any
}

// LoadSnapshot restores state captured by Snapshot into e. The engine must
// have been constructed with the same configuration (node count, policy,
// mechanism, fault wrapping) as the one that produced the snapshot; the
// configuration echo in the frame is verified and mismatches are rejected.
//
// The method is all-or-nothing: every structure is decoded and validated into
// staging storage first, and the engine is only swapped to the restored state
// once nothing can fail. Malformed or corrupted input — truncations, bit
// flips, version skew, semantic inconsistencies — yields an error and leaves
// the engine exactly as it was.
func (e *Engine) LoadSnapshot(data []byte) error {
	if e.cfg.ReleaseCompleted {
		return fmt.Errorf("sim: ReleaseCompleted engines forget completed jobs and cannot restore")
	}
	sm, ok := e.mech.(SnapshotMechanism)
	if !ok {
		return fmt.Errorf("sim: mechanism %q does not support snapshots", e.mech.Name())
	}
	payload, version, err := snapshot.Unframe(data)
	if err != nil {
		return err
	}
	if version != EngineSnapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, this build reads %d", version, EngineSnapshotVersion)
	}
	d := snapshot.NewDec(payload)

	// Configuration echo.
	nodes := d.Int()
	polName := d.String()
	backfillReserved := d.Bool()
	maxSimTime := d.I64()
	reference := d.Bool()
	mechName := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	if nodes != e.cfg.Nodes {
		return fmt.Errorf("sim: snapshot for %d nodes, engine has %d", nodes, e.cfg.Nodes)
	}
	if polName != e.cfg.Policy.Name() {
		return fmt.Errorf("sim: snapshot for policy %q, engine has %q", polName, e.cfg.Policy.Name())
	}
	if backfillReserved != e.cfg.BackfillReserved {
		return fmt.Errorf("sim: snapshot BackfillReserved=%v, engine has %v", backfillReserved, e.cfg.BackfillReserved)
	}
	if maxSimTime != e.cfg.MaxSimTime {
		return fmt.Errorf("sim: snapshot MaxSimTime=%d, engine has %d", maxSimTime, e.cfg.MaxSimTime)
	}
	if reference {
		return fmt.Errorf("sim: snapshot from the retired reference engine path")
	}
	if mechName != e.mech.Name() {
		return fmt.Errorf("sim: snapshot for mechanism %q, engine has %q", mechName, e.mech.Name())
	}

	// Scalar run state.
	clk := d.I64()
	completed := d.Int()
	dispatched := d.Int()
	primed := d.Bool()
	schedPending := d.Bool()

	// Jobs.
	njobs := d.Count(73)
	jobs := make([]*job.Job, 0, njobs)
	byID := make(map[int]*job.Job, njobs)
	completedJobs := 0
	for i := 0; i < njobs; i++ {
		j := job.DecodeSnapshotJob(d)
		if j == nil {
			return d.Err()
		}
		if j.Size > nodes {
			return d.Failf("job %d size %d exceeds system %d", j.ID, j.Size, nodes)
		}
		if _, dup := byID[j.ID]; dup {
			return d.Failf("duplicate job ID %d", j.ID)
		}
		byID[j.ID] = j
		jobs = append(jobs, j)
		if j.State == job.Completed {
			completedJobs++
		}
	}
	if d.Err() == nil && completedJobs != completed {
		return d.Failf("completed count %d disagrees with %d completed jobs", completed, completedJobs)
	}

	resolve := func(ids []int) ([]*job.Job, error) {
		out := make([]*job.Job, len(ids))
		for i, id := range ids {
			j, ok := byID[id]
			if !ok {
				return nil, d.Failf("unknown job ID %d", id)
			}
			out[i] = j
		}
		return out, nil
	}
	queue, err := resolve(d.Ints())
	if err != nil {
		return err
	}
	if !e.queue.Admits(queue, clk) {
		return d.Failf("waiting queue repeats a job or breaks policy order")
	}
	running, err := resolve(d.Ints())
	if err != nil {
		return err
	}
	for i := 1; i < len(running); i++ {
		if running[i-1].ID >= running[i].ID {
			return d.Failf("running set not in ascending ID order")
		}
	}

	cl := cluster.DecodeSnapshotCluster(d)
	if cl == nil {
		return d.Err()
	}
	if cl.N() != nodes {
		return d.Failf("cluster snapshot has %d nodes, expected %d", cl.N(), nodes)
	}
	met := metrics.DecodeSnapshotCollector(d)
	if met == nil {
		return d.Err()
	}

	// Drain windows.
	ndrains := d.Count(8)
	drainTab := make([]*drainWindow, 0, ndrains)
	for i := 0; i < ndrains; i++ {
		w := d.Int()
		taken := nodeset.DecodeSnapshotSet(d)
		end := d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		drainTab = append(drainTab, &drainWindow{want: w, taken: taken, end: end})
	}
	openIdx := d.Ints()
	drains := make([]*drainWindow, len(openIdx))
	for i, idx := range openIdx {
		if idx < 0 || idx >= len(drainTab) {
			return d.Failf("open drain index %d out of range", idx)
		}
		drains[i] = drainTab[idx]
	}

	// Squatting bookkeeping.
	backfillable := make(map[int]bool)
	for _, c := range d.Ints() {
		backfillable[c] = true
	}
	nsq := d.Count(16)
	squats := make(map[int][]squat, nsq)
	for i := 0; i < nsq; i++ {
		id := d.Int()
		n := d.Count(12)
		list := make([]squat, 0, n)
		for k := 0; k < n; k++ {
			claim := d.Int()
			set := nodeset.DecodeSnapshotSet(d)
			if d.Err() != nil {
				return d.Err()
			}
			list = append(list, squat{claim: claim, nodes: set})
		}
		if _, dup := squats[id]; dup {
			return d.Failf("duplicate squat entry for job %d", id)
		}
		squats[id] = list
	}
	nsc := d.Count(16)
	squatted := make(map[int]int, nsc)
	for i := 0; i < nsc; i++ {
		c := d.Int()
		v := d.Int()
		if _, dup := squatted[c]; dup {
			return d.Failf("duplicate squatted entry for claim %d", c)
		}
		squatted[c] = v
	}

	// Event queue.
	seqCounter := d.U64()
	var q eventq.Queue
	q.EnablePooling()
	if err := q.SetSeqCounter(seqCounter); err != nil {
		return d.Fail(err)
	}
	nev := d.Count(17) // time + prio + seq per event, minimum
	rc := &RestoreContext{jobs: byID, events: make(map[uint64]*eventq.Event, nev)}
	endEv := make(map[int]*eventq.Event)
	warnEv := make(map[int]*eventq.Event)
	var prev eventq.Key
	schedSeen := false
	var schedSeq uint64
	for i := 0; i < nev; i++ {
		t := d.I64()
		prio := eventq.Priority(d.U8())
		seq := d.U64()
		tag := d.U8()
		if d.Err() != nil {
			return d.Err()
		}
		if prio < eventq.PrioEnd || prio > eventq.PrioSchedule {
			return d.Failf("event %d: invalid priority %d", i, prio)
		}
		if t < clk {
			return d.Failf("event %d: time %d before the restored clock %d", i, t, clk)
		}
		key := eventq.Key{Time: t, Prio: prio, Seq: seq}
		if i > 0 && !prev.Before(key) {
			return d.Failf("event %d: queue not in dispatch order", i)
		}
		prev = key
		if _, dup := rc.events[seq]; dup || schedSeen && seq == schedSeq {
			return d.Failf("event %d: duplicate sequence number %d", i, seq)
		}
		var payload any
		switch tag {
		case evTagArrive, evTagNotice, evTagEnd, evTagWarn:
			id := d.Int()
			j, ok := byID[id]
			if !ok {
				return d.Failf("event %d: unknown job ID %d", i, id)
			}
			switch tag {
			case evTagArrive:
				payload = evArrive{j}
			case evTagNotice:
				payload = evNotice{j}
			case evTagEnd:
				payload = evEnd{j}
			case evTagWarn:
				payload = evWarn{j: j, claim: d.Int()}
			}
		case evTagTimer:
			p, err := sm.DecodeTimerPayload(d)
			if err != nil {
				return d.Fail(err)
			}
			payload = evTimer{payload: p}
		case evTagSched:
			// The engine keeps the pass as a flag at the clock, after every
			// other event there; a pass anywhere else has no representation.
			if schedSeen {
				return d.Failf("event %d: duplicate scheduler pass", i)
			}
			if t != clk || prio != eventq.PrioSchedule {
				return d.Failf("event %d: scheduler pass at t=%d priority %d, not at the restored clock %d with priority %d",
					i, t, prio, clk, eventq.PrioSchedule)
			}
			if seq >= seqCounter {
				return d.Failf("event %d: scheduler pass seq %d not below counter %d", i, seq, seqCounter)
			}
			schedSeen, schedSeq = true, seq
			continue
		case evTagNodeDown:
			node := d.Int()
			after := d.I64()
			if node < 0 || node >= nodes {
				return d.Failf("event %d: failed node %d out of range", i, node)
			}
			payload = evNodeDown{node: node, repairAfter: after}
		case evTagNodeUp:
			set := nodeset.DecodeSnapshotSet(d)
			if d.Err() != nil {
				return d.Err()
			}
			payload = evNodeUp{nodes: set}
		case evTagDrainStart, evTagDrainEnd:
			idx := d.Int()
			if d.Err() != nil {
				return d.Err()
			}
			if idx < 0 || idx >= len(drainTab) {
				return d.Failf("event %d: drain index %d out of range", i, idx)
			}
			if tag == evTagDrainStart {
				payload = evDrainStart{d: drainTab[idx]}
			} else {
				payload = evDrainEnd{d: drainTab[idx]}
			}
		default:
			return d.Failf("event %d: unknown payload tag %d", i, tag)
		}
		if d.Err() != nil {
			return d.Err()
		}
		// Pending arrivals and notices join the calendar: the primed cursor
		// is an optimisation of a fresh run, and one order merges both.
		ev, err := q.PushRestored(t, prio, payload, seq)
		if err != nil {
			return d.Fail(err)
		}
		rc.events[seq] = ev
		switch p := payload.(type) {
		case evEnd:
			if _, dup := endEv[p.j.ID]; dup {
				return d.Failf("job %d has two end events", p.j.ID)
			}
			endEv[p.j.ID] = ev
		case evWarn:
			if _, dup := warnEv[p.j.ID]; dup {
				return d.Failf("job %d has two warning events", p.j.ID)
			}
			warnEv[p.j.ID] = ev
		}
	}
	if schedSeen != schedPending {
		return d.Failf("scheduler-pending flag %v disagrees with queue contents", schedPending)
	}

	// Mechanism state is the last section; after it, the payload must be
	// fully consumed. The mechanism commits its own state on success, so run
	// it only once everything engine-side has validated — from here on,
	// nothing fails.
	if err := sm.DecodeSnapshotState(d, rc); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}

	// Commit. Rebuild the ID index from scratch, then swap every field.
	e.jobs = jobs
	e.dense = nil
	e.sparse = nil
	e.registered = 0 // register re-counts every restored job below
	for _, j := range jobs {
		// register cannot fail here: IDs were checked unique above.
		_ = e.register(j)
	}
	for _, j := range queue {
		e.mustEnt(j).inQueue = true
	}
	for _, j := range running {
		e.mustEnt(j).running = true
	}
	for id, ev := range endEv {
		e.mustEnt(byID[id]).endEv = ev
	}
	for id, ev := range warnEv {
		e.mustEnt(byID[id]).warnEv = ev
	}
	e.clk = clk
	e.completed = completed
	e.dispatched = dispatched
	e.primed = primed
	e.schedPending = schedPending
	e.schedSeq = schedSeq
	e.primedEvs, e.nextPrimed = nil, 0
	e.queue.Load(queue)
	e.running = running
	e.cl = cl
	e.met = met
	e.drains = drains
	e.backfillable = backfillable
	e.squats = squats
	e.squatted = squatted
	e.q = q
	// Rebuild the incremental scheduler state: the release list (sorting by
	// (EstEnd, ID) reproduces exactly what live maintenance held) and a fresh
	// planner with no memoized shadow. Load above dropped the queue's need
	// index; the next pass rebuilds it.
	e.rel = e.releaseList()
	for _, r := range e.rel {
		ent := e.lookup(r.ID)
		ent.relEnd = r.EstEnd
		ent.relOn = true
	}
	e.relVer++
	e.planner = policy.Planner{}
	e.err = nil
	return nil
}

// TimerPending reports whether a timer handle returned by ScheduleTimer is
// still scheduled. Fired and cancelled timers report false; mechanisms use it
// to serialize only live handles.
func (e *Engine) TimerPending(ev *eventq.Event) bool { return e.q.Contains(ev) }

// sortedKeysBool returns the keys of m whose value is true, ascending.
func sortedKeysBool(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k-1] > xs[k]; k-- {
			xs[k-1], xs[k] = xs[k], xs[k-1]
		}
	}
}

// Baseline mechanism snapshot support: the baseline holds no dynamic state
// and schedules no timers.

// EncodeSnapshotState writes nothing — the baseline is stateless.
func (Baseline) EncodeSnapshotState(*snapshot.Enc) error { return nil }

// DecodeSnapshotState restores nothing.
func (Baseline) DecodeSnapshotState(*snapshot.Dec, *RestoreContext) error { return nil }

// EncodeTimerPayload fails: the baseline never schedules timers.
func (Baseline) EncodeTimerPayload(*snapshot.Enc, any) error {
	return fmt.Errorf("sim: baseline mechanism has no timer payloads")
}

// DecodeTimerPayload fails: the baseline never schedules timers.
func (Baseline) DecodeTimerPayload(*snapshot.Dec) (any, error) {
	return nil, fmt.Errorf("sim: baseline mechanism has no timer payloads")
}
