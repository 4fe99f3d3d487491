package sim

import (
	"sort"

	"hybridsched/internal/eventq"
	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
)

// schedulePass runs the queue policy and EASY backfilling over the current
// state and starts every planned job. The optimized path reads the
// incrementally-sorted queue and running list through reusable scratch
// buffers; the reference path re-derives both the naive way and must plan
// exactly the same starts (internal/simtest holds the two to byte-identical
// reports).
func (e *Engine) schedulePass() {
	if len(e.drains) > 0 {
		// Open maintenance windows absorb newly freed capacity before the
		// planner sees it, on both engine paths identically.
		e.drainAbsorb()
	}
	if e.queue.Len() == 0 {
		return
	}
	if e.cfg.Reference {
		e.queue.Sort(e.clk)
		ri := e.referenceRunningInfo()
		own := func(j *job.Job) int { return e.cl.ReservedCount(j.ID) }
		starts := policy.PlanEASY(e.clk, e.queue.Jobs(), ri, e.cl.FreeCount(), e.backfillExtraCount(), own, e.mech.FlexibleMalleable())
		for _, s := range starts {
			e.startJob(s.J, s.Size, true)
		}
		return
	}

	free := e.cl.FreeCount()
	reserved := e.cl.TotalReserved()
	// Nothing in the queue can start when even the smallest start need
	// exceeds everything the planner could hand out: the free pool, plus
	// reserved capacity counted once as a job's private headroom and once as
	// the shared backfill reserve (the two draws can name the same nodes in
	// the planner's accounting, so the sound bound takes both). The planner
	// would provably return zero starts — skip it. Skips apply only to an
	// incremental queue, since time-dependent policies re-sort (an observable
	// reordering) on every pass.
	if e.queue.Incremental() && e.queue.MinNeed() > free+2*reserved {
		return
	}
	e.queue.Sort(e.clk)
	var own func(j *job.Job) int
	if reserved > 0 {
		own = func(j *job.Job) int { return e.cl.ReservedCount(j.ID) }
	}
	starts := e.planner.PlanEASYSorted(e.clk, &e.queue, e.rel, e.relVer, free, e.backfillExtraCount(), reserved, own)
	for _, s := range starts {
		e.startJob(s.J, s.Size, true)
	}
}

// backfillExtraCount sums the reserved nodes of claims currently marked
// backfillable — the shared reserve backfill candidates may be sized against.
func (e *Engine) backfillExtraCount() int {
	if !e.cfg.BackfillReserved {
		return 0
	}
	bf := 0
	for claim, ok := range e.backfillable {
		if ok {
			bf += e.cl.ReservedCount(claim)
		}
	}
	return bf
}

// runningInfo derives the backfill-planning view of one node-holding job.
func (e *Engine) runningInfo(j *job.Job) (policy.Running, bool) {
	switch j.State {
	case job.Running:
		if j.Class == job.Malleable {
			j.UpdateProgress(e.clk)
			return policy.Running{EstEnd: j.MalleableEstimatedEnd(e.clk), Nodes: j.CurSize, ID: j.ID}, true
		}
		return policy.Running{EstEnd: j.EstimatedEnd(), Nodes: j.CurSize, ID: j.ID}, true
	case job.Warning:
		if ev := e.mustEnt(j).warnEv; ev != nil {
			return policy.Running{EstEnd: ev.Time, Nodes: j.CurSize, ID: j.ID}, true
		}
	}
	return policy.Running{}, false
}

// restoredRunningInfo is runningInfo without the malleable progress
// materialization, for rebuilding the release list from a snapshot: advancing
// a restored job's accounting there would make later snapshot bytes diverge
// from an uninterrupted run's. The estimate-based end is invariant in the
// evaluation time, so the key matches what live maintenance inserted.
func (e *Engine) restoredRunningInfo(j *job.Job) (policy.Running, bool) {
	switch j.State {
	case job.Running:
		if j.Class == job.Malleable {
			return policy.Running{EstEnd: j.MalleableEstimatedEndAsOf(), Nodes: j.CurSize, ID: j.ID}, true
		}
		return policy.Running{EstEnd: j.EstimatedEnd(), Nodes: j.CurSize, ID: j.ID}, true
	case job.Warning:
		if ev := e.mustEnt(j).warnEv; ev != nil {
			return policy.Running{EstEnd: ev.Time, Nodes: j.CurSize, ID: j.ID}, true
		}
	}
	return policy.Running{}, false
}

// referenceRunningInfo is the retained naive path: reconstruct the running
// set by scanning the entry tables (the moral equivalent of the old
// map-iteration), sort the IDs, and allocate a fresh view — exactly the
// shape the incremental running list replaced.
func (e *Engine) referenceRunningInfo() []policy.Running {
	ids := make([]int, 0, len(e.running))
	for i := range e.dense {
		if e.dense[i].j != nil && e.dense[i].running {
			ids = append(ids, e.dense[i].j.ID)
		}
	}
	for id, ent := range e.sparse {
		if ent.running {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	ri := make([]policy.Running, 0, len(ids))
	for _, id := range ids {
		if r, ok := e.runningInfo(e.lookup(id).j); ok {
			ri = append(ri, r)
		}
	}
	return ri
}

// startJob launches j on size nodes, drawing first from the job's own
// reservation, then the free pool, then (when allowSquat and configured)
// reservations marked backfillable, recording squats for later eviction.
func (e *Engine) startJob(j *job.Job, size int, allowSquat bool) {
	need := size
	need -= e.cl.AllocReserved(j.ID, j.ID, need).Len()
	if free := e.cl.FreeCount(); need > 0 && free > 0 {
		take := need
		if take > free {
			take = free
		}
		e.cl.AllocFree(j.ID, take)
		need -= take
	}
	if need > 0 && allowSquat && e.cfg.BackfillReserved && j.Class != job.OnDemand {
		claims := make([]int, 0, len(e.backfillable))
		for claim, ok := range e.backfillable {
			if ok {
				claims = append(claims, claim)
			}
		}
		sort.Ints(claims)
		for _, claim := range claims {
			if need == 0 {
				break
			}
			taken := e.cl.AllocReserved(j.ID, claim, need)
			if taken.Len() == 0 {
				continue
			}
			e.squats[j.ID] = append(e.squats[j.ID], squat{claim: claim, nodes: taken})
			e.squatted[claim] += taken.Len()
			need -= taken.Len()
		}
	}
	if need > 0 {
		e.fail("sim: planner overcommitted: job %d short %d nodes at t=%d", j.ID, need, e.clk)
		return
	}
	// Any leftover private reservation dissolves once the job runs.
	e.cl.UnreserveAll(j.ID)

	e.removeFromQueue(j)
	var end int64
	if j.Class == job.Malleable {
		end = j.StartMalleable(e.clk, size)
	} else {
		end = e.clk + j.Start(e.clk)
	}
	ent := e.mustEnt(j)
	ent.running = true
	e.addRunning(j)
	ent.endEv = e.q.Push(end, eventq.PrioEnd, evEnd{j})
	e.emit(EventStart, j, size)
	if j.Class == job.OnDemand {
		e.mech.OnODStarted(j)
	}
}

// --- Mechanism-facing primitives -----------------------------------------

// StartOnDemand starts an on-demand job immediately from its own reservation
// plus the free pool. The caller must have gathered enough nodes; the engine
// fails the run otherwise.
func (e *Engine) StartOnDemand(j *job.Job) {
	if j.Class != job.OnDemand {
		e.fail("sim: StartOnDemand on %v job %d", j.Class, j.ID)
		return
	}
	if e.cl.ReservedCount(j.ID)+e.cl.FreeCount() < j.Size {
		e.fail("sim: StartOnDemand job %d: %d reserved + %d free < %d",
			j.ID, e.cl.ReservedCount(j.ID), e.cl.FreeCount(), j.Size)
		return
	}
	e.startJob(j, j.Size, false)
}

// PreemptRigid preempts a running rigid (or, in principle, on-demand) job
// immediately: its progress falls back to the last checkpoint, its nodes
// return to the free pool, and the job re-enters the waiting queue with its
// original submission time. The freed node set is returned.
func (e *Engine) PreemptRigid(j *job.Job) *nodeset.Set {
	if j.State != job.Running || j.Class == job.Malleable {
		e.fail("sim: PreemptRigid on job %d (%v, %v)", j.ID, j.Class, j.State)
		return &nodeset.Set{}
	}
	ent := e.mustEnt(j)
	if ev := ent.endEv; ev != nil {
		e.q.Cancel(ev)
		ent.endEv = nil
		e.q.Recycle(ev)
	}
	e.emit(EventPreempt, j, j.CurSize)
	u := j.FinalizePreempt(e.clk)
	e.met.AddUsage(u)
	if j.Ckpt.Enabled() {
		e.emit(EventCheckpoint, j, j.Size)
	}
	freed := e.cl.Release(j.ID)
	ent.running = false
	e.removeRunning(j.ID)
	freed.SubtractWith(e.restoreSquattedNodes(j.ID))
	e.enqueue(j)
	return freed
}

// PreemptMalleableNow preempts a running malleable job with no warning (a
// node crash or a squatter eviction). Completed tasks survive — the loosely
// coupled task model persists finished work — but the setup must be repeated
// and any unfinished in-flight tasks rerun (charged as the setup loss). The
// freed node set is returned.
func (e *Engine) PreemptMalleableNow(j *job.Job) *nodeset.Set {
	if j.State != job.Running || j.Class != job.Malleable {
		e.fail("sim: PreemptMalleableNow on job %d (%v, %v)", j.ID, j.Class, j.State)
		return &nodeset.Set{}
	}
	e.emit(EventPreempt, j, j.CurSize)
	j.BeginWarning(e.clk) // zero-length warning
	u := j.FinalizeWarning(e.clk)
	e.met.AddUsage(u)
	ent := e.mustEnt(j)
	if ev := ent.endEv; ev != nil {
		e.q.Cancel(ev)
		ent.endEv = nil
		e.q.Recycle(ev)
	}
	freed := e.cl.Release(j.ID)
	ent.running = false
	e.removeRunning(j.ID)
	freed.SubtractWith(e.restoreSquattedNodes(j.ID))
	e.enqueue(j)
	return freed
}

// PreemptMalleableWithWarning starts the two-minute warning on a running
// malleable job. When the warning expires the engine frees the job's nodes,
// requeues it, and calls Mechanism.OnWarningExpired with claim. If the job
// completes inside the window, the completion wins and the mechanism instead
// sees OnJobCompleted.
func (e *Engine) PreemptMalleableWithWarning(j *job.Job, claim int) {
	if j.State != job.Running || j.Class != job.Malleable {
		e.fail("sim: warning on job %d (%v, %v)", j.ID, j.Class, j.State)
		return
	}
	j.BeginWarning(e.clk)
	e.emit(EventWarning, j, j.CurSize)
	e.mustEnt(j).warnEv = e.q.Push(e.clk+job.WarningPeriod, eventq.PrioPreempt, evWarn{j: j, claim: claim})
	e.relRefresh(j) // release moves from the estimate to the warning expiry
}

// ShrinkMalleable shrinks a running malleable job to newSize, reschedules its
// completion, and returns the freed node set (left in the free pool for the
// caller to claim).
func (e *Engine) ShrinkMalleable(j *job.Job, newSize int) *nodeset.Set {
	if j.State != job.Running || j.Class != job.Malleable {
		e.fail("sim: shrink on job %d (%v, %v)", j.ID, j.Class, j.State)
		return &nodeset.Set{}
	}
	old := j.CurSize
	if newSize >= old {
		e.fail("sim: shrink job %d from %d to %d", j.ID, old, newSize)
		return &nodeset.Set{}
	}
	end := j.Resize(e.clk, newSize)
	freed := e.cl.ReleasePartial(j.ID, old-newSize)
	e.emit(EventShrink, j, old-newSize)
	e.trimSquats(j.ID, freed)
	e.rescheduleEnd(j, end)
	e.relRefresh(j)
	return freed
}

// trimSquats drops released nodes from a job's squat records: once a
// squatted node leaves the job's allocation (a shrink), the original claim
// has permanently lost it and must not try to reclaim it later.
func (e *Engine) trimSquats(jobID int, released *nodeset.Set) {
	sqs, ok := e.squats[jobID]
	if !ok {
		return
	}
	kept := sqs[:0]
	for _, s := range sqs {
		overlap := nodeset.Intersection(s.nodes, released)
		if !overlap.Empty() {
			s.nodes.SubtractWith(overlap)
			e.squatted[s.claim] -= overlap.Len()
			if e.squatted[s.claim] <= 0 {
				delete(e.squatted, s.claim)
			}
		}
		if !s.nodes.Empty() {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		delete(e.squats, jobID)
	} else {
		e.squats[jobID] = kept
	}
}

// ExpandMalleable grows a running malleable job by the specific free nodes
// in grant and reschedules its completion.
func (e *Engine) ExpandMalleable(j *job.Job, grant *nodeset.Set) {
	if j.State != job.Running || j.Class != job.Malleable {
		e.fail("sim: expand on job %d (%v, %v)", j.ID, j.Class, j.State)
		return
	}
	if grant.Empty() {
		return
	}
	newSize := j.CurSize + grant.Len()
	if newSize > j.Size {
		e.fail("sim: expand job %d past max (%d > %d)", j.ID, newSize, j.Size)
		return
	}
	e.cl.AllocExact(j.ID, grant)
	end := j.Resize(e.clk, newSize)
	e.emit(EventExpand, j, grant.Len())
	e.rescheduleEnd(j, end)
	e.relRefresh(j)
}

func (e *Engine) rescheduleEnd(j *job.Job, end int64) {
	ent := e.mustEnt(j)
	if ev := ent.endEv; ev != nil {
		e.q.Cancel(ev)
		ent.endEv = nil
		e.q.Recycle(ev)
	}
	ent.endEv = e.q.Push(end, eventq.PrioEnd, evEnd{j})
}

// TryResumeNow starts a waiting job immediately if its private reservation
// plus the free pool covers its (minimum) size, bypassing the queue order.
// The paper's directed-return rule uses this: an on-demand job's lenders
// "resume immediately if possible" when their leased nodes come back
// (§III-B.3). Returns false if the job is not waiting or cannot fit.
func (e *Engine) TryResumeNow(j *job.Job) bool {
	if ent := e.lookup(j.ID); ent == nil || !ent.inQueue {
		return false
	}
	avail := e.cl.ReservedCount(j.ID) + e.cl.FreeCount()
	size := j.Size
	if j.Class == job.Malleable {
		if avail < j.MinSize {
			return false
		}
		if size > avail {
			size = avail
		}
	} else if avail < size {
		return false
	}
	e.startJob(j, size, false)
	return true
}

// ScheduleTimer delivers payload to Mechanism.OnTimer at time t.
// It returns a handle that can be cancelled with CancelTimer.
func (e *Engine) ScheduleTimer(t int64, payload any) *eventq.Event {
	if t < e.clk {
		t = e.clk
	}
	return e.q.Push(t, eventq.PrioTimeout, evTimer{payload: payload})
}

// CancelTimer cancels a pending timer handle (nil-safe).
func (e *Engine) CancelTimer(ev *eventq.Event) { e.q.Cancel(ev) }

// RequestSchedule enqueues a scheduler pass at the current instant.
func (e *Engine) RequestSchedule() { e.requestSchedule() }

// --- BackfillReserved squatting -------------------------------------------

// SetClaimBackfillable marks or unmarks a reservation as available to
// backfill squatters (only meaningful with Config.BackfillReserved).
func (e *Engine) SetClaimBackfillable(claim int, ok bool) {
	if ok {
		e.backfillable[claim] = true
	} else {
		delete(e.backfillable, claim)
	}
}

// SquattedCount returns how many of claim's reserved nodes are currently
// occupied by backfill squatters.
func (e *Engine) SquattedCount(claim int) int { return e.squatted[claim] }

// DropClaimSquats forgets all squat records against claim without disturbing
// the squatter jobs (used when a reservation times out: the squatters simply
// keep their nodes as ordinary allocations).
func (e *Engine) DropClaimSquats(claim int) {
	for id, sqs := range e.squats {
		kept := sqs[:0]
		for _, s := range sqs {
			if s.claim == claim {
				e.squatted[claim] -= s.nodes.Len()
				continue
			}
			kept = append(kept, s)
		}
		if len(kept) == 0 {
			delete(e.squats, id)
		} else {
			e.squats[id] = kept
		}
	}
	if e.squatted[claim] <= 0 {
		delete(e.squatted, claim)
	}
}

// EvictSquatters immediately preempts every backfill job squatting on
// claim's reserved nodes (paper §III-B.1: "once the on-demand job arrives,
// all these backfilled jobs have to be preempted immediately"). The evicted
// jobs' squatted nodes return to their claims' reservations; everything else
// they held returns to the free pool. Evicted malleable jobs keep their
// progress (their state save is assumed instantaneous on eviction); rigid
// squatters fall back to their last checkpoint.
func (e *Engine) EvictSquatters(claim int) {
	victims := make([]int, 0)
	for id, sqs := range e.squats {
		for _, s := range sqs {
			if s.claim == claim {
				victims = append(victims, id)
				break
			}
		}
	}
	sort.Ints(victims)
	for _, id := range victims {
		ent := e.lookup(id)
		if ent == nil || !ent.running {
			continue
		}
		j := ent.j
		switch {
		case j.Class == job.Malleable && j.State == job.Running:
			e.PreemptMalleableNow(j)
		case j.State == job.Running:
			e.PreemptRigid(j)
		default:
			continue // already in a warning for someone else; leave it
		}
	}
}

// restoreSquattedNodes returns a finished/preempted squatter's reserved-pool
// nodes to the claims that own them (if the claims are still live), drops
// the squat records, and returns the set of nodes that went back into
// reservations (callers must subtract it from any freed set they report to
// the mechanism, since those nodes are no longer free).
func (e *Engine) restoreSquattedNodes(jobID int) *nodeset.Set {
	reclaimed := &nodeset.Set{}
	sqs, ok := e.squats[jobID]
	if !ok {
		return reclaimed
	}
	delete(e.squats, jobID)
	for _, s := range sqs {
		e.squatted[s.claim] -= s.nodes.Len()
		if e.squatted[s.claim] <= 0 {
			delete(e.squatted, s.claim)
		}
		if e.backfillable[s.claim] {
			// Nodes were released to the free pool by the caller; move them
			// back into the claim's reservation.
			e.cl.ReserveExact(s.claim, s.nodes)
			reclaimed.UnionWith(s.nodes)
		}
	}
	return reclaimed
}
