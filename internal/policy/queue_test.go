package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridsched/internal/job"
)

// checkIndex verifies the need-index invariant against the queue itself:
// groups ascending by need, none empty, each holding exactly the queued jobs
// of its need in queue order beside their estimated walls at full size, each
// group's minimum wall the least of those, and minNeed the first group's
// need. It builds the index if the queue has none, so later operations
// maintain it.
func checkIndex(q *Queue) error {
	q.index()
	want := map[int][]*job.Job{}
	least := maxInt
	for _, j := range q.jobs {
		n := q.need(j)
		want[n] = append(want[n], j)
		if n < least {
			least = n
		}
	}
	if len(q.groups) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(q.groups), len(want))
	}
	for i, g := range q.groups {
		if i > 0 && q.groups[i-1].need >= g.need {
			return fmt.Errorf("groups not ascending at %d", i)
		}
		var jobs []*job.Job
		least := maxInt64
		for _, e := range g.jobs {
			jobs = append(jobs, e.j)
			if w := estimatedWall(e.j, e.j.Size); e.wall != w {
				return fmt.Errorf("group %d: job %d records wall %d, want %d", g.need, e.j.ID, e.wall, w)
			}
			least = min(least, e.wall)
		}
		if !slices.Equal(jobs, want[g.need]) {
			return fmt.Errorf("group %d: %v, want %v", g.need, ids(jobs), ids(want[g.need]))
		}
		if g.minWall != least {
			return fmt.Errorf("group %d: minimum wall %d, want %d", g.need, g.minWall, least)
		}
	}
	if q.minNeed() != least {
		return fmt.Errorf("minNeed %d, want %d", q.minNeed(), least)
	}
	return nil
}

func ids(js []*job.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// TestQueueMatchesReference drives random insertions, removals and re-sorts
// through a Queue under every built-in ordering and both modes, holding its
// order to a plain slice kept the naive way (append, scan-and-delete, stable
// sort) and its need index to the invariant after every operation.
func TestQueueMatchesReference(t *testing.T) {
	for _, ord := range []Ordering{FCFS{}, SJF{}, LJF{}, WFP3{}} {
		for _, incremental := range []bool{true, false} {
			for _, odFirst := range []bool{true, false} {
				for _, flexible := range []bool{true, false} {
					name := fmt.Sprintf("%s/inc=%v/od=%v/flex=%v", ord.Name(), incremental, odFirst, flexible)
					t.Run(name, func(t *testing.T) {
						queueAgainstReference(t, ord, incremental, odFirst, flexible)
					})
				}
			}
		}
	}
}

// resorted hides an ordering's time invariance, so a queue under it appends
// and sorts on Sort, as under a time-dependent ordering.
type resorted struct{ Ordering }

func queueAgainstReference(t *testing.T, ord Ordering, incremental, odFirst, flexible bool) {
	rng := rand.New(rand.NewSource(1))
	if !incremental {
		ord = resorted{ord}
	}
	q := NewQueue(ord, odFirst, flexible)
	var ref []*job.Job
	now := int64(0)
	for op := 0; op < 3000; op++ {
		now += int64(rng.Intn(50))
		switch r := rng.Intn(10); {
		case r < 5 || len(ref) == 0:
			id := op + 1
			size := 1 + rng.Intn(12)
			submit := now - int64(rng.Intn(400))
			est := int64(1 + rng.Intn(900))
			var j *job.Job
			switch rng.Intn(3) {
			case 0:
				j = rigid(id, submit, size, est)
			case 1:
				j = malleable(id, submit, size, 1+rng.Intn(size), est)
			default:
				j = onDemand(id, submit, size, est)
			}
			q.Insert(j, now)
			ref = append(ref, j)
		case r < 9:
			j := ref[rng.Intn(len(ref))]
			if !q.Remove(j, now) {
				t.Fatalf("op %d: Remove(%d) missed a queued job", op, j.ID)
			}
			ref = slices.DeleteFunc(ref, func(x *job.Job) bool { return x == j })
			if q.Remove(j, now) {
				t.Fatalf("op %d: second Remove(%d) reported success", op, j.ID)
			}
		default:
			q.Sort(now)
			if !q.incremental {
				Sort(ref, ord, now, odFirst)
			}
		}
		want := ref
		if q.incremental {
			want = slices.Clone(ref)
			Sort(want, ord, now, odFirst)
		}
		if !slices.Equal(q.Jobs(), want) {
			t.Fatalf("op %d: queue %v, want %v", op, ids(q.Jobs()), ids(want))
		}
		if err := checkIndex(&q); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if q.incremental && !TimeInvariant(ord) {
		t.Fatalf("%s queue claims incremental order", ord.Name())
	}
}

// TestQueueAdmits pins the restore-time check: an incremental queue admits
// only strict policy order, any queue refuses a job listed twice.
func TestQueueAdmits(t *testing.T) {
	a, b := rigid(1, 0, 4, 10), rigid(2, 5, 4, 10)
	inc := NewQueue(FCFS{}, false, false)
	if !inc.Admits([]*job.Job{a, b}, 0) || inc.Admits([]*job.Job{b, a}, 0) || inc.Admits([]*job.Job{a, a}, 0) {
		t.Fatal("incremental queue must admit exactly strict FCFS order")
	}
	perPass := NewQueue(WFP3{}, false, false)
	if !perPass.Admits([]*job.Job{b, a}, 0) || perPass.Admits([]*job.Job{a, b, a}, 0) {
		t.Fatal("re-sorted queue must admit any order of distinct jobs")
	}
	q := NewQueue(FCFS{}, false, false)
	q.Load([]*job.Job{a, b})
	if err := checkIndex(&q); err != nil {
		t.Fatal(err)
	}
}
