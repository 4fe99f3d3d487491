package policy

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hybridsched/internal/job"
)

// refPlanEASY is a brute-force reference EASY planner used only by tests. It
// restates the intended semantics from first principles, independently of the
// Planner's incremental machinery:
//
//   - phase 1 walks the queue head while the start need fits free + own;
//   - phase 2 derives the shadow time by accumulating releases in strict
//     (EstEnd, ID) order over a fresh copy of the running list;
//   - phase 3 sizes every candidate by literal enumeration — try each size
//     from the largest down and take the first that satisfies capacity and
//     either the finish-before-shadow rule or the extra-node rule — rather
//     than the closed-form choice the Planner makes.
//
// Pool accounting follows the spec: a backfill draw is served by the job's
// own reservation, then the free pool, then the shared reserve; the shared
// reserve is charged the larger of the physical free-pool overflow and the
// extra-rule shortfall (the part of the draw the head's slack cannot
// justify), and the head's slack absorbs the remainder.
func refPlanEASY(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve map[int]int, flexible bool) []Start {
	own := func(j *job.Job) int { return ownReserve[j.ID] }
	need := func(j *job.Job) int {
		if flexible && j.Class == job.Malleable {
			return j.MinSize
		}
		return j.Size
	}

	var starts []Start
	idx := 0
	for idx < len(queue) {
		j := queue[idx]
		avail := free + own(j)
		if need(j) > avail {
			break
		}
		size := j.Size
		if flexible && j.Class == job.Malleable && avail < j.Size {
			size = avail
		}
		starts = append(starts, Start{J: j, Size: size})
		fromOwn := own(j)
		if fromOwn > size {
			fromOwn = size
		}
		free -= size - fromOwn
		idx++
	}
	if idx >= len(queue) {
		return starts
	}

	head := queue[idx]
	headNeed := need(head) - own(head)
	rel := append([]Running(nil), running...)
	sort.Slice(rel, func(i, j int) bool { return relLess(rel[i], rel[j]) })
	shadow, extra := maxInt64, 0
	if free >= headNeed {
		extra = free - headNeed
	} else {
		avail := free
		for _, r := range rel {
			avail += r.Nodes
			if avail >= headNeed {
				shadow, extra = r.EstEnd, avail-headNeed
				break
			}
		}
	}

	for _, j := range queue[idx+1:] {
		bf := backfillExtra
		if j.Class == job.OnDemand {
			bf = 0
		}
		lo, hi := j.Size, j.Size
		if flexible && j.Class == job.Malleable {
			lo = j.MinSize
		}
		chosen, usedExtra, found := 0, false, false
		for n := hi; n >= lo; n-- {
			if n > own(j)+free+bf {
				continue
			}
			timeOK := shadow == maxInt64 || now+estimatedWall(j, n) <= shadow
			extraOK := n-own(j) <= extra+bf
			if timeOK || extraOK {
				chosen, usedExtra, found = n, !timeOK, true
				break
			}
		}
		if !found {
			continue
		}
		starts = append(starts, Start{J: j, Size: chosen})
		rest := chosen - own(j)
		if rest < 0 {
			rest = 0
		}
		fromFree := rest
		if fromFree > free {
			fromFree = free
		}
		reserveCharge := rest - fromFree
		if usedExtra {
			if short := rest - extra; short > reserveCharge {
				reserveCharge = short
			}
		}
		backfillExtra -= reserveCharge
		free -= fromFree
		if usedExtra {
			extra -= rest - reserveCharge
			if extra < 0 {
				extra = 0
			}
		}
	}
	return starts
}

func sameStarts(a, b []Start) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].J.ID != b[i].J.ID || a[i].Size != b[i].Size {
			return false
		}
	}
	return true
}

// genInstance builds a random planner instance small enough (≤8 queued jobs)
// that the brute-force reference is exhaustive. Running-job estimated ends
// are drawn from a coarse grid so (EstEnd, ID) tie-breaking is exercised.
func genInstance(rng *rand.Rand) (queue []*job.Job, running []Running, free, bf int, ownReserve map[int]int, flexible bool) {
	nq := rng.Intn(9)
	ownReserve = map[int]int{}
	// Half the instances draw from few sizes, so need groups hold several
	// jobs.
	maxSize := 16
	if rng.Intn(2) == 0 {
		maxSize = 4
	}
	for i := 0; i < nq; i++ {
		id := i + 1
		size := 1 + rng.Intn(maxSize)
		est := int64(1 + rng.Intn(2000))
		switch rng.Intn(3) {
		case 0:
			queue = append(queue, rigid(id, int64(i), size, est))
		case 1:
			queue = append(queue, malleable(id, int64(i), size, 1+rng.Intn(size), est))
		default:
			queue = append(queue, onDemand(id, int64(i), size, est))
		}
		if rng.Intn(4) == 0 {
			ownReserve[id] = 1 + rng.Intn(4)
		}
	}
	for i, nr := 0, rng.Intn(5); i < nr; i++ {
		running = append(running, Running{
			EstEnd: int64(250 * (1 + rng.Intn(8))),
			Nodes:  1 + rng.Intn(16),
			ID:     100 + i,
		})
	}
	return queue, running, rng.Intn(17), rng.Intn(5), ownReserve, rng.Intn(2) == 0
}

// queueOf builds a Queue under ord holding jobs, inserted in the given order
// and then sorted at now (a no-op for an incremental queue).
func queueOf(ord Ordering, odFirst, flexible, incremental bool, now int64, jobs []*job.Job) *Queue {
	q := NewQueue(ord, odFirst, flexible, incremental)
	for _, j := range jobs {
		q.Insert(j, now)
	}
	q.Sort(now)
	return &q
}

// TestPlanEASYMatchesBruteForce pins Planner.PlanEASY and the need-indexed
// PlanEASYSorted, on an incremental queue and on one sorted per pass, to the
// brute-force reference across randomized small instances mixing all three
// job classes, private reservations, shared reserve capacity, both sizing
// modes, and the built-in orderings with and without on-demand-first.
// PlanEASYSorted gets the tightest bound on private reservations it allows,
// so a group skipped one node too eagerly shows up as a missing start.
func TestPlanEASYMatchesBruteForce(t *testing.T) {
	orders := []Ordering{FCFS{}, SJF{}, LJF{}, WFP3{}}
	instances, blockedBehindStarts := 0, 0
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs, running, free, bf, ownReserve, flexible := genInstance(rng)
		ord := orders[rng.Intn(len(orders))]
		odFirst := rng.Intn(2) == 0
		now := int64(rng.Intn(3)) * 250
		var ownFn func(*job.Job) int
		maxOwn := 0
		if len(ownReserve) > 0 {
			ownFn = func(j *job.Job) int { return ownReserve[j.ID] }
			for _, n := range ownReserve {
				maxOwn = max(maxOwn, n)
			}
		}

		inc := queueOf(ord, odFirst, flexible, true, now, jobs)
		queue := inc.Jobs()
		want := refPlanEASY(now, queue, running, free, bf, ownReserve, flexible)
		// Phase-1 starts are the leading starts that are a queue prefix.
		instances++
		if k := countPrefix(want, queue); k > 0 && k < len(queue) {
			blockedBehindStarts++
		}

		var p Planner
		got := p.PlanEASY(now, queue, running, free, bf, ownFn, flexible)
		if !sameStarts(want, got) {
			t.Logf("seed %d: PlanEASY diverges: want %+v got %+v", seed, want, got)
			return false
		}

		sortedRel := append([]Running(nil), running...)
		sort.Slice(sortedRel, func(i, j int) bool { return relLess(sortedRel[i], sortedRel[j]) })
		shuffled := append([]*job.Job(nil), jobs...)
		rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
		resorted := queueOf(ord, odFirst, flexible, false, now, shuffled)
		for _, q := range []*Queue{inc, resorted} {
			var ps Planner
			// Plan twice with the same version: the second call exercises
			// the memoized shadow/extra path and must not change the answer.
			for pass := 0; pass < 2; pass++ {
				got = ps.PlanEASYSorted(now, q, sortedRel, uint64(seed), free, bf, maxOwn, ownFn)
				if !sameStarts(want, got) {
					t.Logf("seed %d pass %d (%s, incremental %v): PlanEASYSorted diverges: want %+v got %+v",
						seed, pass, ord.Name(), q.Incremental(), want, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// The skip of each group's phase-1 prefix is only exercised when phase 1
	// starts jobs and then blocks; the generator must keep producing those.
	if blockedBehindStarts*10 < instances {
		t.Fatalf("only %d of %d instances start jobs ahead of a blocked head", blockedBehindStarts, instances)
	}
}

// countPrefix returns how many leading starts are the queue's leading jobs.
func countPrefix(starts []Start, queue []*job.Job) int {
	k := 0
	for k < len(starts) && k < len(queue) && starts[k].J == queue[k] {
		k++
	}
	return k
}
