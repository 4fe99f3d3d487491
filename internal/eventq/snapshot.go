package eventq

import (
	"fmt"
	"slices"
)

// Seq returns the event's push-order sequence number. Snapshots persist it so
// that a restored queue breaks same-instant ties exactly as the original
// would have.
func (e *Event) Seq() uint64 { return e.seq }

// SeqCounter returns the next sequence number the queue would assign.
func (q *Queue) SeqCounter() uint64 { return q.seq }

// Ordered returns every live event in dispatch order — the exact order Pop
// would deliver them — without disturbing the queue. Cancelled events are
// removed eagerly, so the result is precisely the pending event set; it is
// the canonical iteration for serializing queue contents.
func (q *Queue) Ordered() []*Event {
	out := slices.Clone(q.heap)
	slices.SortFunc(out, func(a, b *Event) int { return a.Key().Compare(b.Key()) })
	return out
}

// PushRestored schedules payload with an explicit sequence number, bypassing
// the queue's counter. It exists solely for snapshot restore: replaying the
// serialized (time, priority, seq) triples reproduces the original dispatch
// order bit-for-bit. It fails if seq has already reached the queue's counter
// position — restored events must predate every future push. Callers are
// responsible for not reusing a seq across live events (the engine's restore
// path indexes every event by seq and rejects collisions there).
func (q *Queue) PushRestored(t int64, p Priority, payload any, seq uint64) (*Event, error) {
	if seq >= q.seq {
		return nil, fmt.Errorf("eventq: restored seq %d not below counter %d", seq, q.seq)
	}
	e := &Event{Time: t, Prio: p, Payload: payload, seq: seq}
	q.insert(e)
	return e, nil
}

// Contains reports whether e is currently scheduled in q. Popped, cancelled,
// and foreign events report false. Mechanisms use it to tell a live timer
// handle from a stale one when serializing their state.
func (q *Queue) Contains(e *Event) bool {
	return e != nil && q.scheduled(e)
}

// SetSeqCounter positions the sequence counter, so pushes after a restore
// continue the original numbering. It fails if n would move the counter
// backwards past a live event.
func (q *Queue) SetSeqCounter(n uint64) error {
	for _, ev := range q.heap {
		if ev.seq >= n {
			return fmt.Errorf("eventq: counter %d not above live seq %d", n, ev.seq)
		}
	}
	q.seq = n
	return nil
}
