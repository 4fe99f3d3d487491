package core

import (
	"hybridsched/internal/job"
	"hybridsched/internal/nodeset"
)

// OnJobCompleted reacts to any job completion:
//
//  1. a completing on-demand job returns its leased nodes to the lenders
//     (paper §III-B.3);
//  2. a malleable job that finished inside a preemption warning delivers its
//     nodes to the claim that was waiting for them;
//  3. whatever remains is offered to collecting on-demand jobs in notice
//     order (CUA/CUP, §III-B.1).
func (m *Mechanism) OnJobCompleted(j *job.Job, freed *nodeset.Set) {
	remaining := freed
	if j.Class == job.OnDemand {
		if s, ok := m.states[j.ID]; ok {
			remaining = m.returnLoans(s, remaining)
			delete(m.states, j.ID)
		}
	}
	if v, ok := m.victims[j.ID]; ok {
		// The victim completed before its warning expired; the claim takes
		// what it needs from the released nodes without owing a loan (the
		// lender no longer exists to be repaid).
		delete(m.victims, j.ID)
		remaining = m.deliverToClaim(v, remaining, j.ID, false)
	}
	m.offerToCollectors(remaining)
}

// OnWarningExpired delivers a preempted malleable job's nodes to the claim
// that requested the preemption and records the loan for later return.
func (m *Mechanism) OnWarningExpired(j *job.Job, claim int, freed *nodeset.Set) {
	v, ok := m.victims[j.ID]
	if !ok {
		v = victimInfo{claim: claim}
	}
	delete(m.victims, j.ID)
	remaining := m.deliverToClaim(v, freed, j.ID, true)
	m.offerToCollectors(remaining)
}

// deliverToClaim routes a warning victim's released nodes to its claim,
// updating the claim's incoming counter and firing a pending start when the
// gather completes. withLoan records a loan for directed return.
func (m *Mechanism) deliverToClaim(v victimInfo, freed *nodeset.Set, lender int, withLoan bool) *nodeset.Set {
	s, ok := m.states[v.claim]
	remaining := freed.Clone()
	if !ok || s.started {
		return remaining
	}
	s.incoming -= v.expect
	if s.incoming < 0 {
		s.incoming = 0
	}
	need := s.j.Size - m.gathered(s.j.ID)
	if need > 0 {
		take := remaining.Pick(min(need, remaining.Len()))
		if !take.Empty() {
			m.e.Cluster().ReserveExact(s.j.ID, take)
			if withLoan {
				s.loans = append(s.loans, loan{lender: lender, kind: loanPreempted, nodes: take})
			}
		}
	}
	if s.pending {
		if m.e.Cluster().ReservedCount(s.j.ID) >= s.j.Size {
			s.pending = false
			m.e.StartOnDemand(s.j)
		} else if s.incoming == 0 {
			// The warnings delivered less than expected (the victims' nodes
			// were contested); fall back to queueing at the front.
			s.pending = false
			m.enqueueFallback(s)
		}
	}
	return remaining
}

// enqueueFallback sends a pending on-demand job to the waiting queue after
// its warnings under-delivered; it keeps its partial gather and keeps
// collecting like any other queued on-demand job.
func (m *Mechanism) enqueueFallback(s *odState) {
	m.registerCollector(s)
	// A pending job was reported handled at arrival, so it must be placed
	// into the queue explicitly.
	m.e.EnqueueWaiting(s.j)
}

// returnLoans gives a completing (or timed-out) on-demand job's borrowed
// nodes back to their lenders: a still-waiting preempted lender gets them as
// a private hold so it can resume as soon as possible (directed return); a
// still-running shrunk lender expands back toward its original size
// (paper §III-B.3). Unreturnable nodes stay in the pool. The available set
// is consumed in place; the remainder is returned.
func (m *Mechanism) returnLoans(s *odState, available *nodeset.Set) *nodeset.Set {
	remaining := available.Clone()
	for _, l := range s.loans {
		if remaining.Empty() {
			break
		}
		// An earlier immediate resume may have consumed free nodes that this
		// loan references; only still-free nodes can be handed back.
		give := nodeset.Intersection(l.nodes, remaining)
		m.e.Cluster().KeepFree(give)
		if give.Empty() {
			continue
		}
		lender := m.lenderJob(l.lender)
		if lender == nil {
			continue
		}
		switch l.kind {
		case loanShrunk:
			if lender.State == job.Running && lender.Class == job.Malleable {
				room := lender.Size - lender.CurSize
				grant := give.Pick(min(room, give.Len()))
				if !grant.Empty() {
					remaining.SubtractWith(grant)
					m.e.ExpandMalleable(lender, grant)
				}
			}
		case loanPreempted:
			// Directed return: hand the leased nodes back and resume the
			// lender immediately if it now fits ("resume immediately if
			// possible", §III-B.3). If it still cannot run, the nodes go to
			// the common pool and the lender keeps waiting near the queue
			// front — the Observation 2 starvation — rather than pinning
			// idle nodes indefinitely.
			if m.cfg.DirectedReturn && m.e.Queued(lender.ID) {
				m.e.Cluster().ReserveExact(lender.ID, give)
				if m.e.TryResumeNow(lender) {
					// The resume consumed the returned nodes plus possibly
					// further free nodes other loans reference.
					m.e.Cluster().KeepFree(remaining)
				} else {
					m.e.Cluster().UnreserveAll(lender.ID)
				}
			}
		}
	}
	s.loans = nil
	m.e.Cluster().KeepFree(remaining)
	return remaining
}

// lenderJob resolves a lender by ID through the engine.
func (m *Mechanism) lenderJob(id int) *job.Job { return m.e.JobByID(id) }

// OnODStarted clears all preparation state once an on-demand job runs,
// whether started by the mechanism or by the regular scheduler pass.
func (m *Mechanism) OnODStarted(j *job.Job) {
	s := m.state(j)
	s.started = true
	s.pending = false
	m.stopPreparation(s)
}
