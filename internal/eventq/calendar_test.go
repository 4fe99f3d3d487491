package eventq

import (
	"math/rand"
	"testing"
)

// refQueue is the oracle the heap queue is pinned to: an unsorted slice
// scanned for the earliest event under before. It numbers pushes exactly as
// Queue does, so one operation program must dispatch the same
// (Time, Prio, seq) stream from both.
type refQueue struct {
	evs []*Event
	seq uint64
}

func (r *refQueue) Push(t int64, p Priority) *Event {
	e := &Event{Time: t, Prio: p, seq: r.seq}
	r.seq++
	r.evs = append(r.evs, e)
	return e
}

// Pop removes and returns the earliest event, or nil when empty.
func (r *refQueue) Pop() *Event {
	if len(r.evs) == 0 {
		return nil
	}
	m := 0
	for i, e := range r.evs {
		if before(e, r.evs[m]) {
			m = i
		}
	}
	e := r.evs[m]
	r.evs = append(r.evs[:m], r.evs[m+1:]...)
	return e
}

// Cancel removes e if it is still queued.
func (r *refQueue) Cancel(e *Event) {
	for i, x := range r.evs {
		if x == e {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return
		}
	}
}

func (r *refQueue) Len() int { return len(r.evs) }

// drainAll pops both queues to exhaustion, requiring identical dispatch.
func drainAll(t *testing.T, cal *Queue, ref *refQueue) {
	t.Helper()
	for {
		a, b := cal.Pop(), ref.Pop()
		if (a == nil) != (b == nil) {
			t.Fatalf("length divergence: queue=%v reference=%v", a != nil, b != nil)
		}
		if a == nil {
			return
		}
		if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
			t.Fatalf("dispatch divergence: queue (t=%d p=%d seq=%d) vs reference (t=%d p=%d seq=%d)",
				a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
		}
	}
}

// TestCalendarMatchesHeapRandom drives the heap and reference queues
// through identical randomized Push/Pop/Cancel/Recycle interleavings and
// requires identical dispatch order throughout.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal Queue
		var ref refQueue
		type pair struct{ c, r *Event }
		var livePairs []pair
		clock := int64(0)
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // push
				dt := int64(rng.Intn(4000))
				if rng.Intn(20) == 0 {
					dt = int64(rng.Intn(10_000_000)) // sparse tail jump
				}
				tm := clock + dt
				p := Priority(rng.Intn(7))
				c := cal.Push(tm, p, op)
				r := ref.Push(tm, p)
				livePairs = append(livePairs, pair{c, r})
			case k < 8: // pop (and sometimes recycle)
				a, b := cal.Pop(), ref.Pop()
				if (a == nil) != (b == nil) {
					t.Fatalf("seed %d op %d: pop length divergence", seed, op)
				}
				if a == nil {
					continue
				}
				if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
					t.Fatalf("seed %d op %d: pop divergence (t=%d p=%d seq=%d) vs (t=%d p=%d seq=%d)",
						seed, op, a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
				}
				clock = a.Time
				for i, pr := range livePairs {
					if pr.c == a {
						livePairs = append(livePairs[:i], livePairs[i+1:]...)
						break
					}
				}
				if rng.Intn(2) == 0 {
					cal.Recycle(a)
				}
			default: // cancel a random live handle
				if len(livePairs) == 0 {
					continue
				}
				i := rng.Intn(len(livePairs))
				pr := livePairs[i]
				cal.Cancel(pr.c)
				ref.Cancel(pr.r)
				livePairs = append(livePairs[:i], livePairs[i+1:]...)
			}
			if cal.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len %d vs %d", seed, op, cal.Len(), ref.Len())
			}
		}
		drainAll(t, &cal, &ref)
	}
}

// TestCalendarOrderedMatchesHeap pins the serialization iteration to the
// reference queue's dispatch order.
func TestCalendarOrderedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cal Queue
	var ref refQueue
	for i := 0; i < 500; i++ {
		tm := int64(rng.Intn(1000))
		p := Priority(rng.Intn(7))
		cal.Push(tm, p, i)
		ref.Push(tm, p)
	}
	co := cal.Ordered()
	if len(co) != ref.Len() {
		t.Fatalf("Ordered length %d vs %d", len(co), ref.Len())
	}
	for i, c := range co {
		if r := ref.Pop(); c.Time != r.Time || c.Prio != r.Prio || c.seq != r.seq {
			t.Fatalf("Ordered[%d] diverges", i)
		}
	}
}

// TestCalendarNegativeTimes checks the dispatch order of negative timestamps.
func TestCalendarNegativeTimes(t *testing.T) {
	var q Queue
	times := []int64{-100, -1, 0, 1, -50, 30, -7}
	for _, tm := range times {
		q.Push(tm, PrioArrive, nil)
	}
	prev := int64(-1 << 62)
	for e := q.Pop(); e != nil; e = q.Pop() {
		if e.Time < prev {
			t.Fatalf("order violated: %d after %d", e.Time, prev)
		}
		prev = e.Time
	}
}

// TestCalendarSparseTail verifies that huge forward gaps dispatch in order.
func TestCalendarSparseTail(t *testing.T) {
	var q Queue
	for i := 0; i < 64; i++ {
		q.Push(int64(i), PrioEnd, i)
	}
	q.Push(1_000_000_000, PrioEnd, "far")
	q.Push(2_000_000_000, PrioEnd, "farther")
	for i := 0; i < 64; i++ {
		if e := q.Pop(); e.Time != int64(i) {
			t.Fatalf("pop %d: got t=%d", i, e.Time)
		}
	}
	if e := q.Pop(); e.Payload != "far" {
		t.Fatalf("expected far event, got t=%d", e.Time)
	}
	if e := q.Pop(); e.Payload != "farther" {
		t.Fatalf("expected farther event, got t=%d", e.Time)
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestCalendarContainsAndCancel checks handle identity as the heap grows and
// shrinks.
func TestCalendarContainsAndCancel(t *testing.T) {
	var q Queue
	var hs []*Event
	for i := 0; i < 300; i++ {
		hs = append(hs, q.Push(int64(i*13%97), PrioTimeout, i))
	}
	for i, h := range hs {
		if !q.Contains(h) {
			t.Fatalf("handle %d not found", i)
		}
	}
	for i, h := range hs {
		if i%3 == 0 {
			q.Cancel(h)
			if q.Contains(h) {
				t.Fatalf("cancelled handle %d still contained", i)
			}
		}
	}
	if want := 300 - 100; q.Len() != want {
		t.Fatalf("Len=%d want %d", q.Len(), want)
	}
	count := 0
	for q.Pop() != nil {
		count++
	}
	if count != 200 {
		t.Fatalf("drained %d events, want 200", count)
	}
}

// TestStaleHandlesAfterRefill keeps the handles of one popped and one
// cancelled event while pushes refill every heap position the two held, then
// calls Cancel, Contains and Recycle through both. A stale handle must touch
// nothing: the length, the membership of every live event and the dispatch
// order stay exactly as the reference queue has them.
func TestStaleHandlesAfterRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue
	var ref refQueue
	type pair struct{ c, r *Event }
	var live []pair
	push := func() {
		tm, p := int64(rng.Intn(100)), Priority(rng.Intn(7))
		live = append(live, pair{q.Push(tm, p, nil), ref.Push(tm, p)})
	}
	drop := func(c *Event) {
		for i, pr := range live {
			if pr.c == c {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
		t.Fatalf("handle seq %d not live", c.seq)
	}
	check := func(stage string) {
		t.Helper()
		if q.Len() != ref.Len() {
			t.Fatalf("%s: Len %d, reference %d", stage, q.Len(), ref.Len())
		}
		for _, pr := range live {
			if !q.Contains(pr.c) {
				t.Fatalf("%s: live event seq %d not contained", stage, pr.c.seq)
			}
		}
	}

	const n = 64
	for q.Len() < n {
		push()
	}
	popped := q.Pop()
	ref.Pop()
	drop(popped)
	victim := live[len(live)/2]
	q.Cancel(victim.c)
	ref.Cancel(victim.r)
	drop(victim.c)
	for q.Len() < n {
		push()
	}
	check("refilled")

	stale := []*Event{popped, victim.c}
	for _, h := range stale {
		q.Cancel(h)
		if q.Contains(h) {
			t.Fatalf("stale handle seq %d reported contained", h.seq)
		}
	}
	check("after stale Cancel")
	for _, h := range stale {
		q.Recycle(h)
	}
	check("after stale Recycle")
	for i := 0; i < 4; i++ {
		push() // reuses the recycled events
	}
	check("after reuse")
	drainAll(t, &q, &ref)
}

// FuzzQueueEquivalence feeds interleaved Push/Pop/Cancel/Recycle programs to
// the heap and reference queues and requires dispatch-order equivalence —
// the heap queue is pinned to the reference under arbitrary operation mixes,
// not just the simulator's.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 7, 8})
	f.Add([]byte{10, 10, 10, 128, 128, 200, 200, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cal Queue
		var ref refQueue
		type pair struct{ c, r *Event }
		var live []pair
		base := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			switch op % 4 {
			case 0: // push near the current base
				tm := base + arg
				p := Priority(op % 7)
				live = append(live, pair{cal.Push(tm, p, i), ref.Push(tm, p)})
			case 1: // push far ahead
				tm := base + arg*arg*37
				p := Priority(op % 7)
				live = append(live, pair{cal.Push(tm, p, i), ref.Push(tm, p)})
			case 2: // pop and optionally recycle
				a, b := cal.Pop(), ref.Pop()
				if (a == nil) != (b == nil) {
					t.Fatal("pop presence divergence")
				}
				if a == nil {
					continue
				}
				if a.Time != b.Time || a.Prio != b.Prio || a.seq != b.seq {
					t.Fatalf("dispatch divergence (t=%d p=%d seq=%d) vs (t=%d p=%d seq=%d)",
						a.Time, a.Prio, a.seq, b.Time, b.Prio, b.seq)
				}
				base = a.Time
				for k, pr := range live {
					if pr.c == a {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
				if arg%2 == 0 {
					cal.Recycle(a)
				}
			case 3: // cancel an arbitrary live handle
				if len(live) == 0 {
					continue
				}
				k := int(arg) % len(live)
				cal.Cancel(live[k].c)
				ref.Cancel(live[k].r)
				live = append(live[:k], live[k+1:]...)
			}
			if cal.Len() != ref.Len() {
				t.Fatalf("Len divergence %d vs %d", cal.Len(), ref.Len())
			}
		}
		drainAll(t, &cal, &ref)
	})
}
