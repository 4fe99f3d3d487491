package eventq

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPopOrderByTime(t *testing.T) {
	var q Queue
	q.Push(30, PrioEnd, "c")
	q.Push(10, PrioEnd, "a")
	q.Push(20, PrioEnd, "b")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		e := q.Pop()
		if e == nil || e.Payload.(string) != w {
			t.Fatalf("pop %d: got %v, want %q", i, e, w)
		}
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestPopOrderByPriorityAtSameTime(t *testing.T) {
	var q Queue
	q.Push(100, PrioSchedule, "sched")
	q.Push(100, PrioArrive, "arrive")
	q.Push(100, PrioEnd, "end")
	q.Push(100, PrioTimeout, "timeout")
	q.Push(100, PrioPreempt, "preempt")
	q.Push(100, PrioNotice, "notice")
	q.Push(100, PrioFault, "fault")
	want := []string{"end", "fault", "notice", "preempt", "timeout", "arrive", "sched"}
	for i, w := range want {
		if got := q.Pop().Payload.(string); got != w {
			t.Fatalf("pop %d: got %q, want %q", i, got, w)
		}
	}
}

func TestFIFOWithinSamePriority(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(5, PrioArrive, i)
	}
	for i := 0; i < 10; i++ {
		if got := q.Pop().Payload.(int); got != i {
			t.Fatalf("tie-break not FIFO: got %d, want %d", got, i)
		}
	}
}

// TestTakeSeqMergesUnderKeyOrder keeps some events outside the queue under
// sequence numbers from TakeSeq, as the engine keeps its primed arrivals and
// its scheduler pass, and checks that merging them with the queue's pops
// under Key order reproduces the order of a queue that held them all.
func TestTakeSeqMergesUnderKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all, held Queue
	var outside []Key
	for i := 0; i < 500; i++ {
		tm, p := int64(rng.Intn(50)), Priority(rng.Intn(int(PrioSchedule)+1))
		ref := all.Push(tm, p, i)
		if rng.Intn(2) == 0 {
			if seq := held.TakeSeq(); seq != ref.Seq() {
				t.Fatalf("TakeSeq %d, Push numbered the same event %d", seq, ref.Seq())
			}
			outside = append(outside, Key{Time: tm, Prio: p, Seq: ref.Seq()})
			continue
		}
		if ev := held.Push(tm, p, i); ev.Key() != ref.Key() {
			t.Fatalf("held key %+v, reference %+v", ev.Key(), ref.Key())
		}
	}
	slices.SortFunc(outside, func(a, b Key) int { return a.Compare(b) })
	for all.Len() > 0 {
		want := all.Pop().Key()
		var got Key
		if ev := held.Peek(); ev != nil && (len(outside) == 0 || ev.Key().Before(outside[0])) {
			got = held.Pop().Key()
		} else {
			got, outside = outside[0], outside[1:]
		}
		if got != want {
			t.Fatalf("merged %+v, reference queue %+v", got, want)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	a := q.Push(1, PrioEnd, "a")
	b := q.Push(2, PrioEnd, "b")
	q.Cancel(a)
	if q.Len() != 1 {
		t.Fatalf("len after cancel = %d, want 1", q.Len())
	}
	if !a.Canceled() {
		t.Fatal("a should report cancelled")
	}
	if got := q.Pop(); got != b {
		t.Fatalf("pop returned %v, want b", got)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	var q Queue
	a := q.Push(1, PrioEnd, "a")
	q.Cancel(a)
	q.Cancel(a) // must not panic or corrupt the heap
	q.Cancel(nil)
	if q.Len() != 0 {
		t.Fatalf("len = %d, want 0", q.Len())
	}
}

func TestCancelAfterPop(t *testing.T) {
	var q Queue
	a := q.Push(1, PrioEnd, "a")
	q.Push(2, PrioEnd, "b")
	got := q.Pop()
	if got != a {
		t.Fatal("expected to pop a")
	}
	q.Cancel(a) // already popped: must not disturb remaining entries
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
	if q.Pop().Payload.(string) != "b" {
		t.Fatal("b lost after cancelling popped event")
	}
}

func TestCancelMiddleKeepsHeapValid(t *testing.T) {
	var q Queue
	var handles []*Event
	for i := 0; i < 100; i++ {
		handles = append(handles, q.Push(int64(i%17), PrioArrive, i))
	}
	for i := 0; i < 100; i += 3 {
		q.Cancel(handles[i])
	}
	prev := int64(-1)
	n := 0
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		if e.Time < prev {
			t.Fatalf("heap order violated: %d after %d", e.Time, prev)
		}
		prev = e.Time
		n++
	}
	if n != 66 {
		t.Fatalf("popped %d events, want 66", n)
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Fatal("peek of empty queue should be nil")
	}
	q.Push(9, PrioEnd, "x")
	q.Push(3, PrioEnd, "y")
	if q.Peek().Payload.(string) != "y" {
		t.Fatal("peek should return earliest")
	}
	if q.Len() != 2 {
		t.Fatal("peek must not remove")
	}
}

// Property: for any random sequence of pushes, popping drains events in
// non-decreasing (time, priority, seq) order and returns exactly as many
// events as were pushed.
func TestPopOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			q.Push(int64(r.Intn(50)), Priority(r.Intn(7)), i)
		}
		var prev *Event
		count := 0
		for {
			e := q.Pop()
			if e == nil {
				break
			}
			count++
			if prev != nil && before(e, prev) {
				return false
			}
			prev = e
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved pushes, pops, and cancels never violate ordering and
// conserve events (popped + cancelled == pushed at drain time).
func TestMixedOperationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		live := make(map[*Event]bool)
		pushed, popped, cancelled := 0, 0, 0
		for op := 0; op < 500; op++ {
			switch r.Intn(3) {
			case 0:
				e := q.Push(int64(r.Intn(100)), Priority(r.Intn(7)), op)
				live[e] = true
				pushed++
			case 1:
				if e := q.Pop(); e != nil {
					if e.Canceled() {
						return false // cancelled events must never be popped
					}
					delete(live, e)
					popped++
				}
			case 2:
				for e := range live {
					q.Cancel(e)
					delete(live, e)
					cancelled++
					break
				}
			}
		}
		for q.Pop() != nil {
			popped++
		}
		return pushed == popped+cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		var q Queue
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			q.Push(int64(r.Intn(20)), Priority(r.Intn(7)), i)
		}
		var order []int
		for {
			e := q.Pop()
			if e == nil {
				break
			}
			order = append(order, e.Payload.(int))
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order diverged at %d", i)
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	times := make([]int64, 1024)
	for i := range times {
		times[i] = int64(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q Queue
		for j := 0; j < 1024; j++ {
			q.Push(times[j], PrioArrive, j)
		}
		for q.Pop() != nil {
		}
	}
}
