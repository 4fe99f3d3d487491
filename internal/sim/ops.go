package sim

import (
	"fmt"
	"slices"
	"sort"

	"hybridsched/internal/eventq"
	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
	"hybridsched/internal/policy"
)

// schedulePass runs the queue policy and EASY backfilling over the current
// state and starts every planned job. Under Config.Validate, checkPass holds
// the plan and the structures it read to a from-scratch derivation first.
func (e *Engine) schedulePass() {
	if len(e.drains) > 0 {
		// Open maintenance windows absorb newly freed capacity before the
		// planner sees it.
		e.drainAbsorb()
	}
	starts := e.plan()
	if e.cfg.Validate {
		if err := e.checkPass(starts); err != nil {
			e.fail("sim: scheduler pass at t=%d: %v", e.clk, err)
			return
		}
	}
	for _, s := range starts {
		e.startJob(s.J, s.Size, true)
	}
}

// plan returns the starts of one scheduler pass from the incrementally
// maintained queue and release list.
func (e *Engine) plan() []policy.Start {
	if e.queue.Len() == 0 {
		return nil
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
		return nil
	}
	e.queue.Sort(e.clk)
	var own func(j *job.Job) int
	if reserved > 0 {
		own = func(j *job.Job) int { return e.cl.ReservedCount(j.ID) }
	}
	return e.planner.PlanEASYSorted(e.clk, &e.queue, e.rel, e.relVer, free, e.backfillExtraCount(), reserved, own)
}

// checkPass is the Config.Validate oracle for one scheduler pass, run before
// any of its starts: the waiting queue must hold exactly the jobs flagged
// queued, in an order the queue admits; the release list must equal one
// rebuilt from the running set; and starts (none for a skipped pass) must be
// what policy.PlanEASY plans over the queue and the rebuilt release list. It
// changes nothing, so a validated run stays byte-identical.
func (e *Engine) checkPass(starts []policy.Start) error {
	queue := e.queue.Jobs()
	if !e.queue.Admits(queue, e.clk) {
		return fmt.Errorf("queue %v repeats a job or breaks policy order", jobIDs(queue))
	}
	for _, j := range queue {
		if ent := e.lookup(j.ID); ent == nil || !ent.inQueue {
			return fmt.Errorf("queue holds job %d, which is not flagged queued", j.ID)
		}
	}
	flagged := 0
	for i := range e.dense {
		if e.dense[i].inQueue {
			flagged++
		}
	}
	for _, ent := range e.sparse {
		if ent.inQueue {
			flagged++
		}
	}
	if flagged != len(queue) {
		return fmt.Errorf("queue holds %d jobs, %d are flagged queued", len(queue), flagged)
	}
	rel := e.releaseList()
	if !slices.Equal(e.rel, rel) {
		return fmt.Errorf("release list %v, rebuilt from the running set %v", e.rel, rel)
	}
	own := func(j *job.Job) int { return e.cl.ReservedCount(j.ID) }
	want := policy.PlanEASY(e.clk, queue, rel, e.cl.FreeCount(), e.backfillExtraCount(), own, e.mech.FlexibleMalleable())
	if !slices.Equal(starts, want) {
		return fmt.Errorf("starts %v, PlanEASY plans %v", startList(starts), startList(want))
	}
	return nil
}

// jobIDs lists the IDs of jobs, in order.
func jobIDs(jobs []*job.Job) []int {
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// startList renders starts as "job:size" pairs, for diagnostics.
func startList(starts []policy.Start) []string {
	out := make([]string, len(starts))
	for i, s := range starts {
		out[i] = fmt.Sprintf("%d:%d", s.J.ID, s.Size)
	}
	return out
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

// runningInfo derives the backfill-planning view of one node-holding job
// without changing it: a malleable job's estimate-based end is read as of its
// last progress update, which is invariant in the evaluation time while the
// job runs at one size (see job.MalleableEstimatedEndAsOf).
func (e *Engine) runningInfo(j *job.Job) (policy.Running, bool) {
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

// releaseList builds the release list from scratch: the planning view of
// every job in the running set, in (EstEnd, ID) order. Snapshot restore
// rebuilds the list with it, and checkPass compares against it.
func (e *Engine) releaseList() []policy.Running {
	var rel []policy.Running
	for _, j := range e.running {
		if r, ok := e.runningInfo(j); ok {
			rel = append(rel, r)
		}
	}
	sort.Slice(rel, func(i, k int) bool { return policy.RelLess(rel[i], rel[k]) })
	return rel
}

// startJob launches j on size nodes, drawing first from the job's own
// reservation, then the free pool, then (when allowSquat and configured)
// reservations marked backfillable, recording squats for later eviction.
func (e *Engine) startJob(j *job.Job, size int, allowSquat bool) {
	need := size
	if e.cl.ReservedCount(j.ID) > 0 {
		need -= e.cl.AllocReserved(j.ID, j.ID, need).Len()
	}
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
	if e.cl.ReservedCount(j.ID) > 0 {
		e.cl.UnreserveAll(j.ID)
	}

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
	e.restoreSquattedNodes(j.ID, freed)
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
	e.restoreSquattedNodes(j.ID, freed)
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
// the squat records, and subtracts the nodes that went back into
// reservations from freed, the set the caller reports to the mechanism,
// since those nodes are no longer free.
func (e *Engine) restoreSquattedNodes(jobID int, freed *nodeset.Set) {
	sqs, ok := e.squats[jobID]
	if !ok {
		return
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
			freed.SubtractWith(s.nodes)
		}
	}
}
