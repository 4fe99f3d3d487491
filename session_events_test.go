package hybridsched

import (
	"sync"
	"testing"
)

// TestEventsSlowConsumerOverflow pins the DroppedEvents overflow contract
// the schedd SSE bridge depends on: a consumer that never drains loses
// exactly the events past the channel buffer — the first eventChanBuffer
// events arrive intact and in dispatch order, the excess is counted by
// DroppedEvents, and the simulation itself never blocks or loses state.
func TestEventsSlowConsumerOverflow(t *testing.T) {
	// A synchronous observer sees the complete stream by construction; it is
	// the reference the channel's surviving prefix is compared against.
	var full []Event
	s := mustSession(t, WithNodes(4096), WithMechanism("baseline"),
		WithObserver(ObserverFunc(func(ev Event) { full = append(full, ev) })))

	ch := s.Events() // never drained until the run is over

	// Each rigid job emits at least arrival+start+end; 2000 jobs overflow
	// the 4096-slot buffer more than once over.
	const jobs = 2000
	for i := 1; i <= jobs; i++ {
		r := Record{ID: i, Class: Rigid, Submit: int64(i), Size: 1, Work: 60, Estimate: 120}
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	for ev := range ch { // Run closed the channel
		got = append(got, ev)
	}
	if len(full) <= eventChanBuffer {
		t.Fatalf("workload emitted only %d events; need > %d to exercise overflow", len(full), eventChanBuffer)
	}
	if len(got) != eventChanBuffer {
		t.Fatalf("undrained channel delivered %d events, want exactly the %d-slot buffer", len(got), eventChanBuffer)
	}
	if drops := s.DroppedEvents(); drops != len(full)-eventChanBuffer {
		t.Fatalf("DroppedEvents() = %d, want %d (%d emitted - %d buffered)",
			drops, len(full)-eventChanBuffer, len(full), eventChanBuffer)
	}
	// The survivors are the stream's prefix, not an arbitrary sample: drops
	// discard the newest event, never reorder or displace buffered ones.
	for i, ev := range got {
		if ev != full[i] {
			t.Fatalf("event %d: channel saw %+v, observer saw %+v", i, ev, full[i])
		}
	}
}

// TestCloseConcurrent pins the server-teardown contract: Close may race
// another Close, blocked Events readers, and a run in progress, without
// panics, double closes, or lost channel closes (run under -race in CI).
func TestCloseConcurrent(t *testing.T) {
	s := mustSession(t, WithNodes(64), WithMechanism("baseline"))
	for i := 1; i <= 500; i++ {
		r := Record{ID: i, Class: Rigid, Submit: int64(i), Size: 1, Work: 60, Estimate: 120}
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Blocked readers: each drains its channel to exhaustion; Close must
	// wake them all.
	for i := 0; i < 4; i++ {
		ch := s.Events()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
	}
	// The driving goroutine advances the run while Close lands mid-flight.
	runErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		for hour := int64(1); hour <= 10 && err == nil; hour++ {
			err = s.RunUntil(hour * Hour)
		}
		runErr <- err
	}()
	// Concurrent Closes from several goroutines: idempotent, no double close.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		t.Fatalf("run alongside concurrent Close: %v", err)
	}

	// Close after Close is still fine, and a post-Close Events channel is
	// born closed.
	s.Close()
	if _, ok := <-s.Events(); ok {
		t.Fatal("Events() on a closed session must return a closed channel")
	}
	// The session stays queryable after teardown.
	if snap := s.Snapshot(); snap.Submitted != 500 {
		t.Fatalf("post-Close Snapshot.Submitted = %d, want 500", snap.Submitted)
	}
}

// TestCloseEventsDetachesOneChannel: CloseEvents closes the one channel it
// is given, from another goroutine while the run is in progress, and that
// channel counts no drops afterwards; the other channels keep receiving.
// Closing it again is a no-op.
func TestCloseEventsDetachesOneChannel(t *testing.T) {
	all := 0
	s := mustSession(t, WithNodes(4096), WithMechanism("baseline"),
		WithObserver(ObserverFunc(func(Event) { all++ })))
	for i := 1; i <= 2000; i++ {
		r := Record{ID: i, Class: Rigid, Submit: int64(i), Size: 1, Work: 60, Estimate: 120}
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	left, kept := s.Events(), s.Events()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.CloseEvents(left)
	}()
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	<-done
	s.CloseEvents(left)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for range left { // closed by CloseEvents, after what reached it before
	}
	n := 0
	for range kept {
		n++
	}
	if n != eventChanBuffer {
		t.Fatalf("kept channel received %d events, want its %d-slot buffer", n, eventChanBuffer)
	}
	// Only the kept channel overflowed: the detached one stopped counting.
	if got, want := s.DroppedEvents(), all-eventChanBuffer; got != want {
		t.Fatalf("DroppedEvents() = %d, want %d", got, want)
	}
}

// TestDroppedEventsOfCountsOneChannel: DroppedEventsOf counts only the
// events dropped from its own channel, keeps the count after Run closes the
// channel, and reads 0 for a detached channel; DroppedEvents is the sum.
func TestDroppedEventsOfCountsOneChannel(t *testing.T) {
	all := 0
	s := mustSession(t, WithNodes(4096), WithMechanism("baseline"),
		WithObserver(ObserverFunc(func(Event) { all++ })))
	for i := 1; i <= 2000; i++ {
		r := Record{ID: i, Class: Rigid, Submit: int64(i), Size: 1, Work: 60, Estimate: 120}
		if err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	early, gone := s.Events(), s.Events()
	if err := s.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	before := all
	late := s.Events()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.CloseEvents(gone) // after Run closed it: a no-op that keeps its count
	wantEarly, wantLate := all-eventChanBuffer, all-before-eventChanBuffer
	if wantLate <= 0 {
		t.Fatalf("%d events after the late channel attached; need > %d", all-before, eventChanBuffer)
	}
	for _, c := range []struct {
		name string
		ch   <-chan Event
		want int
	}{{"early", early, wantEarly}, {"gone", gone, wantEarly}, {"late", late, wantLate}} {
		if got := s.DroppedEventsOf(c.ch); got != c.want {
			t.Errorf("DroppedEventsOf(%s) = %d, want %d", c.name, got, c.want)
		}
	}
	if got, want := s.DroppedEvents(), 2*wantEarly+wantLate; got != want {
		t.Errorf("DroppedEvents() = %d, want %d", got, want)
	}

	detached := mustSession(t)
	ch := detached.Events()
	detached.CloseEvents(ch)
	if got := detached.DroppedEventsOf(ch); got != 0 {
		t.Errorf("DroppedEventsOf(detached channel) = %d, want 0", got)
	}
}

// mustSession builds a session or fails the test.
func mustSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
