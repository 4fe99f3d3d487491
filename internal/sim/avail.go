package sim

import (
	"fmt"

	"hybridsched/internal/eventq"
	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
)

// This file is the engine's availability model: nodes leave service — a
// failure with a repair time, or a scheduled maintenance drain — and return
// later, shrinking and restoring the capacity every scheduler pass plans
// against. Down nodes live in the cluster's down pool, so FreeCount (the
// planner's supply), reservations, and the partition invariant are all
// capacity-aware without any scheduler-side special cases.
//
// Ordering at one instant: failures and drain openings dispatch at
// eventq.PrioFault (after completions, before notices and arrivals); repairs
// and drain closings dispatch at eventq.PrioEnd (restored capacity is usable
// by anything arriving at the same instant).

// drainWindow is one scheduled maintenance window. It wants a node count; it
// absorbs free nodes when it opens and keeps absorbing as capacity frees up
// (checked before every scheduler pass), then returns everything it took when
// it closes. A drain never preempts: running jobs finish on their nodes, and
// the window simply holds whatever it managed to collect.
type drainWindow struct {
	want  int
	taken *nodeset.Set
	end   int64
}

// Availability event payloads.
type (
	evNodeDown struct {
		node        int
		repairAfter int64
	}
	evNodeUp     struct{ nodes *nodeset.Set }
	evDrainStart struct{ d *drainWindow }
	evDrainEnd   struct{ d *drainWindow }
)

// emitNode delivers a node-availability event (Job is -1: no job attached).
func (e *Engine) emitNode(t EventType, nodes int) {
	if e.sink != nil {
		e.sink(Event{Type: t, Time: e.clk, Job: -1, Nodes: nodes})
	}
}

// DownCount returns the number of nodes currently out of service.
func (e *Engine) DownCount() int { return e.cl.DownCount() }

// AvailableNodes returns the number of in-service nodes (system size minus
// failed-under-repair and drained nodes).
func (e *Engine) AvailableNodes() int { return e.cl.AvailableCount() }

// ScheduleNodeFailure schedules node to fail at virtual time t with the given
// repair delay (see FailNode). The fault injector lays out its whole failure
// timeline with it at attach time; the node strike and its consequences are
// resolved when the event fires. A pending failure is an ordinary event, so
// Snapshot captures it, repair delay included.
func (e *Engine) ScheduleNodeFailure(t int64, node int, repairAfter int64) error {
	if node < 0 || node >= e.cfg.Nodes {
		return fmt.Errorf("sim: ScheduleNodeFailure of node %d outside [0,%d)", node, e.cfg.Nodes)
	}
	if t < e.clk {
		t = e.clk
	}
	e.q.Push(t, eventq.PrioFault, evNodeDown{node: node, repairAfter: repairAfter})
	return nil
}

// FailNode fails one node at the current instant. If a job holds the node it
// is interrupted first: a rigid or on-demand job is preempted back to its
// last checkpoint, a running malleable job loses its in-flight work, and a
// malleable job already inside its preemption warning has the warning expire
// immediately (its nodes are freed exactly once — no double release).
//
// With repairAfter > 0 the node then leaves service for that many seconds:
// the free pool every scheduler pass plans against shrinks, and an
// engine-level repair event restores the node. With repairAfter <= 0 the node
// repairs instantly — the legacy shortcut the fault extension used before the
// availability model existed — so capacity never shrinks.
//
// The return value reports whether the failure struck a job. Failures on
// free or reserved nodes still remove capacity (a reserved node is taken out
// of its claim's reservation); failures on a node already down are misses
// with no effect.
func (e *Engine) FailNode(node int, repairAfter int64) bool {
	if node < 0 || node >= e.cfg.Nodes || e.cl.IsDown(node) {
		e.met.NoteFailure(false)
		return false
	}
	struck := false
	if holder, ok := e.cl.AllocHolder(node); ok {
		if ent := e.lookup(holder); ent != nil && ent.running {
			j := ent.j
			struck = true
			switch {
			case j.State == job.Warning:
				e.expireWarningEarly(j)
			case j.Class == job.Malleable:
				e.PreemptMalleableNow(j)
			default:
				e.PreemptRigid(j)
			}
		}
	}
	e.met.NoteFailure(struck)
	if repairAfter > 0 {
		downed := e.takeNodeDown(node)
		if !downed.Empty() {
			e.emitNode(EventNodeDown, downed.Len())
			e.q.Push(e.clk+repairAfter, eventq.PrioEnd, evNodeUp{nodes: downed})
		}
	}
	e.requestSchedule()
	return struck
}

// takeNodeDown moves the failed node out of service from whichever pool it
// ended up in after the strike. The preemption path can hand the node
// straight back to the mechanism (a directed return re-reserving it, or an
// on-demand start claiming it synchronously from OnWarningExpired); if it is
// already re-allocated, an arbitrary free node substitutes — the capacity
// loss is what matters — and with nothing free the repair window is skipped
// entirely (the failure still preempted its victim).
func (e *Engine) takeNodeDown(node int) *nodeset.Set {
	switch {
	case e.cl.IsFree(node):
		set := nodeset.FromIDs(node)
		e.cl.TakeDownExact(set)
		return set
	default:
		if claim, ok := e.cl.ReservationHolder(node); ok {
			e.cl.TakeDownReserved(claim, node)
			return nodeset.FromIDs(node)
		}
		return e.cl.TakeDownFree(1)
	}
}

// expireWarningEarly forces a malleable job's preemption warning to expire at
// the current instant (a failure struck it mid-warning). The expiry runs with
// the pending event's claim, and vacate withdraws that event, so the nodes
// are released exactly once and the mechanism sees the usual
// OnWarningExpired callback.
func (e *Engine) expireWarningEarly(j *job.Job) {
	wev := e.mustEnt(j).warnEv
	if wev == nil {
		e.fail("sim: job %d in warning with no expiry event", j.ID)
		return
	}
	e.handleWarnExpired(j, wev.Payload.(evWarn).claim)
}

// handleNodeUp returns repaired nodes to the free pool.
func (e *Engine) handleNodeUp(nodes *nodeset.Set) {
	e.cl.Restore(nodes)
	e.emitNode(EventNodeUp, nodes.Len())
	e.requestSchedule()
}

// ScheduleDrain schedules a maintenance window: starting at start, up to
// count nodes are taken out of service — free nodes immediately, more as
// capacity frees up — and everything absorbed returns at start+duration.
// Drains never preempt running jobs. Multiple windows may overlap; each
// absorbs independently.
func (e *Engine) ScheduleDrain(start, duration int64, count int) error {
	if count < 1 || count > e.cfg.Nodes {
		return fmt.Errorf("sim: drain of %d nodes on a %d-node system", count, e.cfg.Nodes)
	}
	if duration < 1 {
		return fmt.Errorf("sim: drain duration %d must be positive", duration)
	}
	if start < e.clk {
		return fmt.Errorf("sim: drain start t=%d is before the clock (t=%d)", start, e.clk)
	}
	d := &drainWindow{want: count, taken: &nodeset.Set{}, end: start + duration}
	e.q.Push(start, eventq.PrioFault, evDrainStart{d: d})
	return nil
}

// handleDrainStart opens a maintenance window: absorb what the free pool has
// now, keep absorbing before every scheduler pass, and schedule the close.
func (e *Engine) handleDrainStart(d *drainWindow) {
	e.drains = append(e.drains, d)
	e.emitNode(EventDrain, d.want)
	e.drainAbsorb()
	e.q.Push(d.end, eventq.PrioEnd, evDrainEnd{d: d})
	e.requestSchedule()
}

// handleDrainEnd closes a maintenance window and restores everything it took.
func (e *Engine) handleDrainEnd(d *drainWindow) {
	for i, w := range e.drains {
		if w == d {
			copy(e.drains[i:], e.drains[i+1:])
			e.drains[len(e.drains)-1] = nil
			e.drains = e.drains[:len(e.drains)-1]
			break
		}
	}
	if !d.taken.Empty() {
		e.cl.Restore(d.taken)
		e.emitNode(EventNodeUp, d.taken.Len())
	}
	e.requestSchedule()
}

// drainAbsorb lets every open maintenance window with a deficit take nodes
// from the free pool. It runs when a window opens and before every scheduler
// pass, so a drain outranks waiting jobs for newly freed capacity — but never
// interferes with nodes a mechanism already reserved or handed out.
func (e *Engine) drainAbsorb() {
	for _, d := range e.drains {
		deficit := d.want - d.taken.Len()
		if deficit <= 0 {
			continue
		}
		take := e.cl.TakeDownFree(deficit)
		if take.Empty() {
			continue
		}
		d.taken.UnionWith(take)
		e.emitNode(EventNodeDown, take.Len())
	}
}
