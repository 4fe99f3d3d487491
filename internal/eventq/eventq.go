// Package eventq implements the deterministic priority event queue that
// drives the discrete-event scheduling simulator.
//
// Events are ordered by (Time, Priority, sequence number), the order Key
// exports. The sequence number — assigned at push time — breaks ties
// deterministically, so two runs of the same simulation always dispatch
// events in the same order. A caller may also reserve a sequence number with
// TakeSeq for an event it keeps outside the queue and merge it with the
// queue's events under Key order. Entries can be cancelled cheaply, which the
// mechanisms use to withdraw planned preemptions and reservation timeouts
// when an on-demand job arrives early.
//
// The simulation engine keeps the arrivals and notices it knows up front in
// a sorted cursor of its own and its scheduler pass as a flag, so the queue
// holds only in-flight events: completions, warning expiries, mechanism
// timers, node failures and repairs, drain edges and live submissions. That
// population is bounded by the running jobs, not by the trace, and a binary
// min-heap serves it in O(log n) per Push, Pop and Cancel. Each event stores
// its heap position, so Cancel needs no search and the membership check
// behind Contains and Recycle is O(1). The package tests pin the dispatch
// order to a naive reference queue under fuzzed Push/Pop/Cancel/Recycle
// interleavings.
package eventq

// Priority orders events that fire at the same instant. Lower values
// dispatch first. The ordering encodes the scheduling semantics of the
// simulator: releases happen before arrivals so that an on-demand job
// arriving exactly when another job ends can use the freed nodes, and the
// scheduler pass runs after all state changes at that instant.
type Priority int

// Priority classes from first-dispatched to last-dispatched.
const (
	PrioEnd      Priority = iota // job completions free resources first
	PrioFault                    // node failures (extension)
	PrioNotice                   // on-demand advance notices
	PrioPreempt                  // planned preemptions and warning expiries
	PrioTimeout                  // reservation timeouts
	PrioArrive                   // job submissions and on-demand arrivals
	PrioSchedule                 // scheduler invocation, always last
)

// Key is an event's place in the dispatch order: earlier Time first, then
// lower Prio, then lower Seq. Sequence numbers are unique within a queue, so
// the order is total. The queue orders its events by it, and a caller that
// keeps events of its own outside the queue (see TakeSeq) merges them with
// the queue's under the same order.
type Key struct {
	Time int64
	Prio Priority
	Seq  uint64
}

// Before reports whether an event at a dispatches before one at b.
func (a Key) Before(b Key) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Seq < b.Seq
}

// Compare returns -1, 0 or +1 as a dispatches before, with, or after b, for
// use with slices.SortFunc.
func (a Key) Compare(b Key) int {
	switch {
	case a.Before(b):
		return -1
	case b.Before(a):
		return 1
	}
	return 0
}

// Event is an entry in the queue. Payload is opaque to the queue.
type Event struct {
	Time    int64
	Prio    Priority
	Payload any
	seq     uint64
	// index is the event's heap position; -1 once popped or cancelled.
	index    int
	canceled bool
	pooled   bool // on the free list, awaiting reuse
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Key returns the event's place in the dispatch order.
func (e *Event) Key() Key { return Key{Time: e.Time, Prio: e.Prio, Seq: e.seq} }

// Queue is a deterministic priority queue of events. The zero value is ready
// to use.
type Queue struct {
	// heap is a binary min-heap under before: heap[i] dispatches no later
	// than its children heap[2i+1] and heap[2i+2], and heap[i].index == i.
	heap []*Event
	seq  uint64
	pool []*Event // recycled events, reused by Push
}

// Len returns the number of live (non-cancelled) events.
// Cancelled events are removed eagerly, so this is exact.
func (q *Queue) Len() int { return len(q.heap) }

// TakeSeq reserves the next sequence number without scheduling anything, for
// an event the caller keeps outside the queue: it dispatches exactly where a
// Push at that point would have placed it, provided the caller merges it with
// the queue's events under Key order.
func (q *Queue) TakeSeq() uint64 {
	s := q.seq
	q.seq++
	return s
}

// Push schedules payload at time t with priority p and returns a handle that
// can be used to cancel it. It reuses a recycled event when one is parked, so
// a long simulation reaches a steady state where scheduling stops allocating.
func (q *Queue) Push(t int64, p Priority, payload any) *Event {
	var e *Event
	if n := len(q.pool); n > 0 {
		e = q.pool[n-1]
		q.pool[n-1] = nil
		q.pool = q.pool[:n-1]
		*e = Event{Time: t, Prio: p, Payload: payload, seq: q.TakeSeq()}
	} else {
		e = &Event{Time: t, Prio: p, Payload: payload, seq: q.TakeSeq()}
	}
	q.insert(e)
	return e
}

// insert adds e to the heap.
func (q *Queue) insert(e *Event) {
	q.heap = append(q.heap, e)
	q.up(e, len(q.heap)-1)
}

// up moves e, which belongs at position i or above it, towards the root
// until its parent dispatches first.
func (q *Queue) up(e *Event, i int) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down moves e, which belongs at position i or below it, towards the leaves
// until neither child dispatches first. It reports whether e moved.
func (q *Queue) down(e *Event, i int) bool {
	h := q.heap
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i != start
}

// remove deletes the event at heap position i and returns it. The last event
// fills the hole and sifts down, or up when it dispatches before the hole's
// parent.
func (q *Queue) remove(i int) *Event {
	e := q.heap[i]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i < n && !q.down(last, i) {
		q.up(last, i)
	}
	e.index = -1
	return e
}

// Pop removes and returns the earliest event. It returns nil when the queue
// is empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.remove(0)
}

// Peek returns the earliest event without removing it, or nil when empty.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// scheduled reports whether e is currently stored in q.
func (q *Queue) scheduled(e *Event) bool {
	return e.index >= 0 && e.index < len(q.heap) && q.heap[e.index] == e
}

// Cancel removes e from the queue. Cancelling an event that was already
// popped or cancelled is a no-op.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	debugCancel(e)
	e.canceled = true
	if q.scheduled(e) {
		q.remove(e.index)
	}
}

// Recycle parks e for reuse by a future Push. The caller asserts that no
// other reference to e survives: e must already be popped or cancelled, and
// every handle to it dropped — recycling a still-referenced event would let
// a later Cancel through the stale handle hit an unrelated reuse. A queue
// whose events are never recycled never reuses one, so callers that keep
// their handles (the mechanisms' timers) simply do not call it. Recycle is a
// no-op for nil events, for events still in the queue, and for events
// already parked, so callers may recycle defensively. The eventqdebug build
// tag turns the defensive no-ops into panics.
func (q *Queue) Recycle(e *Event) {
	if e == nil {
		return
	}
	debugRecycle(q, e)
	if e.pooled || q.scheduled(e) {
		return
	}
	e.pooled = true
	e.Payload = nil
	q.pool = append(q.pool, e)
}

// before reports whether a should dispatch before b.
func before(a, b *Event) bool { return a.Key().Before(b.Key()) }
