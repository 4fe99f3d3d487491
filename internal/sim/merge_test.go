package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hybridsched/internal/job"
	"hybridsched/internal/snapshot"
)

// coincideMech lays out mechanism timers and node failures at attach time,
// requests a scheduler pass there, and schedules one more timer from its
// notice callback, so that timers land on both sides of a pass requested
// mid-instant. It logs every timer it receives into the shared log.
type coincideMech struct {
	Baseline
	e   *Engine
	log *[]string
}

func (m *coincideMech) Attach(e *Engine) {
	m.e = e
	e.ScheduleTimer(0, "attach-0")
	if err := e.ScheduleNodeFailure(0, 63, 50); err != nil {
		panic(err)
	}
	e.ScheduleTimer(1000, "attach-1000")
	if err := e.ScheduleNodeFailure(1000, 62, 50); err != nil {
		panic(err)
	}
	e.RequestSchedule()
}

func (m *coincideMech) OnNotice(j *job.Job) {
	m.e.ScheduleTimer(m.e.Now(), fmt.Sprintf("notice-%d", j.ID))
}

func (m *coincideMech) OnTimer(p any) {
	*m.log = append(*m.log, fmt.Sprintf("t=%d timer %v", m.e.Now(), p))
}

func (m *coincideMech) EncodeTimerPayload(enc *snapshot.Enc, p any) error {
	s, ok := p.(string)
	if !ok {
		return fmt.Errorf("timer payload %T", p)
	}
	enc.String(s)
	return nil
}

func (m *coincideMech) DecodeTimerPayload(d *snapshot.Dec) (any, error) {
	s := d.String()
	return s, d.Err()
}

// coincideJobs is the primed trace. Jobs 6 and 2 arrive together at t=0 in
// that registration order, so registration (sequence) order, not job ID,
// must break their tie; job 1 ends at t=1000, where job 4 arrives and job
// 5's notice lands.
func coincideJobs() []*job.Job {
	return []*job.Job{
		rigid(1, 0, 8, 1000),
		rigid(6, 0, 8, 5000),
		rigid(2, 0, 8, 5000),
		job.NewOnDemand(3, 0, 500, 4, 100, 100, 0, job.AccurateNotice, 0, 500),
		rigid(4, 1000, 8, 100),
		job.NewOnDemand(5, 0, 1500, 4, 100, 100, 0, job.AccurateNotice, 1000, 1500),
	}
}

// newCoincideEngine builds the engine over a fresh primed trace, logging
// every emitted event and timer into log.
func newCoincideEngine(t *testing.T, log *[]string) *Engine {
	t.Helper()
	e, err := New(Config{Nodes: 64, Validate: true}, coincideJobs(), &coincideMech{log: log})
	if err != nil {
		t.Fatal(err)
	}
	e.SetEventSink(func(ev Event) {
		*log = append(*log, fmt.Sprintf("t=%d %v %d", ev.Time, ev.Type, ev.Job))
	})
	return e
}

// TestCoincidentSourcesDispatchInKeyOrder puts every event source on one
// instant and checks the dispatch order is (Time, Prio, Seq) across them:
// queued events (a completion, node failures, timers, live arrivals), the
// primed cursor (arrivals and notices of the jobs known at the first Step)
// and the scheduler pass. A pass requested at Attach holds the lowest
// sequence number of t=0, below every primed event, yet runs last; a job
// cannot end at t=0 (work is at least one second), so a second instant,
// t=1000, carries the completion, with a timer pushed after that instant's
// pass was requested. Live arrivals, submitted after the first Step, take
// sequence numbers above the primed ones and dispatch after them. A
// snapshot after every step of both instants must restore to a frame of the
// same bytes and resume to the same stream.
func TestCoincidentSourcesDispatchInKeyOrder(t *testing.T) {
	var log []string
	e := newCoincideEngine(t, &log)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	// Live submissions join the queue once the run is primed.
	for _, j := range []*job.Job{rigid(10, 0, 8, 5000), rigid(11, 1000, 8, 100)} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	var frames [][]byte
	var marks []int // len(log) when each frame was taken
	for more := true; more; {
		frame, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		frames, marks = append(frames, frame), append(marks, len(log))
		if more, err = e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"t=0 nodedown -1",    // PrioFault, pushed at Attach
		"t=0 notice 3",       // PrioNotice, primed
		"t=0 timer attach-0", // PrioTimeout, pushed at Attach
		"t=0 timer notice-3", // PrioTimeout, pushed by the notice
		"t=0 arrival 1",      // PrioArrive, primed in registration order
		"t=0 arrival 6",
		"t=0 arrival 2",
		"t=0 arrival 10", // PrioArrive, live: after every primed arrival
		"t=0 start 1",    // the pass requested at Attach, last; it starts
		"t=0 start 2",    // in FCFS order, (submit, ID)
		"t=0 start 6",
		"t=0 start 10",
		"t=50 nodeup -1",
		"t=500 arrival 3",
		"t=500 start 3",
		"t=600 end 3",
		"t=1000 end 1",             // PrioEnd: requests the pass
		"t=1000 nodedown -1",       // PrioFault
		"t=1000 notice 5",          // PrioNotice, primed
		"t=1000 timer attach-1000", // PrioTimeout, seq below the pass
		"t=1000 timer notice-5",    // PrioTimeout, seq above the pass
		"t=1000 arrival 4",         // PrioArrive, primed
		"t=1000 arrival 11",        // PrioArrive, live
		"t=1000 start 4",           // the pass
		"t=1000 start 11",
	}
	if len(log) < len(want) || !slices.Equal(log[:len(want)], want) {
		t.Fatalf("dispatch order\ngot:  %q\nwant: %q", log[:min(len(log), len(want))], want)
	}

	for i, frame := range frames {
		var rlog []string
		r := newCoincideEngine(t, &rlog)
		if err := r.LoadSnapshot(frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("frame %d: restored engine writes a different frame", i)
		}
		if _, err := r.Run(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rest := log[marks[i]:]; !slices.Equal(rlog, rest) {
			t.Fatalf("frame %d: resumed stream\ngot:  %q\nwant: %q", i, rlog, rest)
		}
	}
}
