// Package eventq implements the deterministic priority event queue that
// drives the discrete-event scheduling simulator.
//
// Events are ordered by (Time, Priority, sequence number). The sequence
// number — assigned at push time — breaks ties deterministically, so two runs
// of the same simulation always dispatch events in the same order. Entries
// can be cancelled cheaply, which the mechanisms use to withdraw planned
// preemptions and reservation timeouts when an on-demand job arrives early.
//
// The queue is a calendar queue (Brown, CACM'88): a power-of-two ring of
// sorted buckets indexed by floor(Time/width), which makes Push/Pop amortized
// O(1) for the near-monotone event populations a simulation produces — a
// binary heap's O(log n) per operation is one of the superlinear walls
// between the engine and multi-million-event traces. The package tests pin
// its dispatch order to a naive reference queue under fuzzed
// Push/Pop/Cancel/Recycle interleavings.
package eventq

import "sort"

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

// Event is an entry in the queue. Payload is opaque to the queue.
type Event struct {
	Time    int64
	Prio    Priority
	Payload any
	seq     uint64
	// index is the calendar bucket the event was placed in; -1 once removed.
	index    int
	canceled bool
	pooled   bool // on the free list, awaiting reuse
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// minBuckets is the initial (and minimum) calendar ring size.
const minBuckets = 4

// Queue is a deterministic priority queue of events. The zero value is ready
// to use.
type Queue struct {
	// A power-of-two ring of buckets, each sorted by the dispatch order. An
	// event at time t lives in bucket floorDiv(t, width) & (len(buckets)-1).
	// lastT is a lower bound on the minimum live event time: Pop raises it to
	// the dispatched time, Push lowers it when an event lands in the past
	// (mechanisms schedule at the current instant), so the bucket scan always
	// starts at the right window.
	buckets [][]*Event
	width   int64
	lastT   int64
	n       int

	seq  uint64
	pool []*Event
	// pooling enables the internal free list (see EnablePooling).
	pooling bool
}

// EnablePooling turns on the internal Event free list: Recycle parks spent
// events and Push reuses them, so a long simulation reaches a steady state
// where event scheduling stops allocating. Off by default because reuse makes
// a retained stale handle dangerous — enable it only when every Recycle call
// provably hands back the last live reference (the simulation engine does;
// its mechanism-held timer handles are never recycled).
func (q *Queue) EnablePooling() { q.pooling = true }

// Len returns the number of live (non-cancelled) events.
// Cancelled events are removed eagerly, so this is exact.
func (q *Queue) Len() int { return q.n }

// Push schedules payload at time t with priority p and returns a handle that
// can be used to cancel it.
func (q *Queue) Push(t int64, p Priority, payload any) *Event {
	var e *Event
	if n := len(q.pool); n > 0 {
		e = q.pool[n-1]
		q.pool[n-1] = nil
		q.pool = q.pool[:n-1]
		*e = Event{Time: t, Prio: p, Payload: payload, seq: q.seq}
	} else {
		e = &Event{Time: t, Prio: p, Payload: payload, seq: q.seq}
	}
	q.seq++
	q.insert(e)
	return e
}

// insert places e into the calendar.
func (q *Queue) insert(e *Event) {
	if q.buckets == nil {
		q.buckets = make([][]*Event, minBuckets)
		q.width = 1
		q.lastT = e.Time
	}
	if q.n+1 > 2*len(q.buckets) {
		q.rebuild(2 * len(q.buckets))
	}
	q.place(e)
	q.n++
	if e.Time < q.lastT {
		q.lastT = e.Time
	}
}

// place inserts e into its calendar bucket at its sorted position.
func (q *Queue) place(e *Event) {
	b := int(floorDiv(e.Time, q.width)) & (len(q.buckets) - 1)
	bk := q.buckets[b]
	i := sort.Search(len(bk), func(k int) bool { return before(e, bk[k]) })
	bk = append(bk, nil)
	copy(bk[i+1:], bk[i:])
	bk[i] = e
	q.buckets[b] = bk
	e.index = b
}

// rebuild resizes the ring to nb buckets and re-derives the bucket width from
// the live population (the average inter-event gap, clamped to one tick).
// Events are redistributed in global dispatch order, which keeps every bucket
// sorted, and lastT snaps to the true minimum.
func (q *Queue) rebuild(nb int) {
	all := make([]*Event, 0, q.n)
	for _, bk := range q.buckets {
		all = append(all, bk...)
	}
	sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
	var width int64 = 1
	if n := len(all); n > 1 {
		width = (all[n-1].Time - all[0].Time) / int64(n-1)
		if width < 1 {
			width = 1
		}
	}
	q.width = width
	q.buckets = make([][]*Event, nb)
	for _, e := range all {
		q.place(e)
	}
	if len(all) > 0 {
		q.lastT = all[0].Time
	}
}

// findMin locates the earliest live event and its bucket, advancing lastT to
// its time. The scan visits at most one full rotation of the ring starting at
// lastT's window; the window bound (head.Time < top) is exact because events
// one ring-period apart never share a window within a single rotation. When
// the next event is further than one rotation away (a sparse tail), a direct
// search over the bucket heads finds it and lastT jumps forward, so repeated
// operations on a sparse queue do not rescan.
func (q *Queue) findMin() (int, *Event) {
	if q.n == 0 {
		return -1, nil
	}
	nb := len(q.buckets)
	vb := floorDiv(q.lastT, q.width)
	b := int(vb) & (nb - 1)
	top := (vb + 1) * q.width
	for i := 0; i < nb; i++ {
		if bk := q.buckets[b]; len(bk) > 0 && bk[0].Time < top {
			q.lastT = bk[0].Time
			return b, bk[0]
		}
		b = (b + 1) & (nb - 1)
		top += q.width
	}
	best := -1
	for i, bk := range q.buckets {
		if len(bk) > 0 && (best < 0 || before(bk[0], q.buckets[best][0])) {
			best = i
		}
	}
	q.lastT = q.buckets[best][0].Time
	return best, q.buckets[best][0]
}

// removeAt deletes position i from bucket b.
func (q *Queue) removeAt(b, i int) {
	bk := q.buckets[b]
	copy(bk[i:], bk[i+1:])
	bk[len(bk)-1] = nil
	q.buckets[b] = bk[:len(bk)-1]
	q.n--
	if nb := len(q.buckets); nb > minBuckets && q.n < nb/2 {
		q.rebuild(nb / 2)
	}
}

// Pop removes and returns the earliest event. It returns nil when the queue
// is empty.
func (q *Queue) Pop() *Event {
	b, e := q.findMin()
	if e == nil {
		return nil
	}
	e.index = -1
	q.removeAt(b, 0)
	return e
}

// Peek returns the earliest event without removing it, or nil when empty.
func (q *Queue) Peek() *Event {
	_, e := q.findMin()
	return e
}

// scheduled reports whether e is currently stored in q.
func (q *Queue) scheduled(e *Event) bool {
	if e.index < 0 || e.index >= len(q.buckets) {
		return false
	}
	for _, x := range q.buckets[e.index] {
		if x == e {
			return true
		}
	}
	return false
}

// Cancel removes e from the queue. Cancelling an event that was already
// popped or cancelled is a no-op.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	debugCancel(e)
	e.canceled = true
	if b := e.index; b >= 0 && b < len(q.buckets) {
		for i, x := range q.buckets[b] {
			if x == e {
				e.index = -1
				q.removeAt(b, i)
				return
			}
		}
	}
}

// Recycle parks e for reuse by a future Push. The caller asserts that no
// other reference to e survives: e must already be popped or cancelled, and
// every handle to it dropped — recycling a still-referenced event would let
// a later Cancel through the stale handle hit an unrelated reuse. Recycle is
// a no-op when pooling is disabled, for nil events, for events still in the
// queue, and for events already parked, so callers may recycle defensively.
// The eventqdebug build tag turns the defensive no-ops into panics.
func (q *Queue) Recycle(e *Event) {
	if e == nil {
		return
	}
	debugRecycle(q, e)
	if !q.pooling || e.pooled {
		return
	}
	if q.scheduled(e) {
		return // still scheduled
	}
	e.pooled = true
	e.Payload = nil
	q.pool = append(q.pool, e)
}

// before reports whether a should dispatch before b.
func before(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.seq < b.seq
}

// floorDiv is floor(a/w) for positive w, exact for negative a (Go's integer
// division truncates toward zero).
func floorDiv(a, w int64) int64 {
	d := a / w
	if a%w != 0 && a < 0 {
		d--
	}
	return d
}
