package policy

import (
	"sort"

	"hybridsched/internal/job"
)

// Running describes a running job for backfill planning: when the scheduler
// expects its nodes back (estimate-based, never the actual end), how many
// nodes it holds, and which job it is. The release list is ordered by
// (EstEnd, ID) — a total order — so an incrementally maintained list and a
// freshly sorted one agree bit-for-bit even when estimated ends tie.
type Running struct {
	EstEnd int64
	Nodes  int
	ID     int
}

// relLess is the release-list order: by estimated end, ties by job ID.
func relLess(a, b Running) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd < b.EstEnd
	}
	return a.ID < b.ID
}

// RelLess reports whether a orders before b in the release list — the
// (EstEnd, ID) total order PlanEASYSorted requires callers to maintain.
func RelLess(a, b Running) bool { return relLess(a, b) }

// Start is a planner decision: start job J on Size nodes now.
type Start struct {
	J    *job.Job
	Size int
}

// maxInt64 stands in for an unbounded shadow time.
const maxInt64 = int64(^uint64(0) >> 1)

// Planner computes EASY-backfilling plans with reusable scratch buffers, so a
// scheduler invoking it once per event allocates nothing in steady state. The
// zero value is ready to use. A Planner is not safe for concurrent use, and
// each PlanEASY call invalidates the slice returned by the previous one.
type Planner struct {
	starts []Start
	rel    []Running
	curs   []cursor

	// Memoized phase-2 shadow/extra for PlanEASYSorted, keyed by everything
	// the computation reads: the head's residual need, the free pool, and the
	// caller's release-list version. See PlanEASYSorted.
	shadowValid    bool
	shadowHeadNeed int
	shadowFree     int
	shadowRelVer   uint64
	shadowTime     int64
	shadowExtra    int
}

// PlanEASY computes the set of waiting jobs to start now under FCFS/EASY
// semantics (Mu'alem & Feitelson, TPDS'01):
//
//  1. Jobs start from the head of the (already ordered) queue while they fit
//     in the free pool.
//  2. The first job that does not fit gets a reservation at the shadow time —
//     the earliest instant at which enough running jobs will have released
//     nodes (by their estimates).
//  3. Jobs behind it may backfill if they fit now and either finish (by their
//     estimate) before the shadow time or use only capacity the head job will
//     not need (the "extra" nodes, plus reserved capacity invisible to it).
//
// Malleable jobs are sized greedily: the largest feasible size wins; a
// malleable head job only needs its minimum size to start.
//
// ownReserve reports nodes privately reserved for a specific waiting job —
// the directed returns of the paper's on-demand completion rule and the
// partial gathers of an on-demand job that could not start instantly. A job
// consumes its own reservation before touching the free pool, and private
// nodes never count against the head job's extra-node slack. nil means no
// private reservations.
//
// backfillExtra adds shared reserved-node capacity usable by backfill
// candidates only (paper §III-B.1: nodes reserved for a future on-demand job
// may host backfill jobs that are preempted the moment it arrives); the queue
// head never starts on that capacity.
// flexible enables malleable sizing: when false (the Table II baseline:
// "no special treatments"), malleable jobs are scheduled rigidly at their
// maximum size.
//
// Phase 3 visits every job behind the head; PlanEASYSorted on an incremental
// queue visits only those that could fit and must agree with it exactly.
//
// The returned slice is owned by the Planner and valid until its next call.
func (p *Planner) PlanEASY(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve func(*job.Job) int, flexible bool) []Start {
	idx, b := p.head(now, queue, running, free, backfillExtra, ownReserve, flexible, false, 0)
	if idx < len(queue) {
		p.backfillLinear(queue[idx+1:], &b)
	}
	return p.starts
}

// PlanEASYSorted is PlanEASY over q, which must be in policy order at now (an
// incremental queue always is; Sort any other first), and a release list the
// caller maintains sorted by (EstEnd, ID). The per-pass copy and sort of the
// release list disappear, and the phase-2 shadow/extra computation is
// memoized: relVersion must change whenever the contents of running change
// (any insert, removal, or estimate update); together with the head's
// residual need and the free count it keys the cached result, so a pass
// repeated against an unchanged running set and free pool skips the
// release-list scan entirely.
//
// On an incremental queue, phase 3 walks q's need index instead of the
// queue, with one cursor on each need group whose need is at most free +
// backfillExtra + maxOwn, where maxOwn bounds ownReserve over every queued
// job (the total of reserved nodes will do; 0 with no private reservations):
// a job needing more cannot fit its own reservation plus both pools. Within
// a pass the shadow time is fixed and the pools only shrink, so a candidate
// the pools reject stays rejected: each cursor moves forward past rejected
// jobs to its group's first admissible one and never back, and the earliest
// of those in queue order is the start the linear scan of PlanEASY would
// make next. The plan is PlanEASY's, start
// for start, at a cost set by the jobs that could fit rather than by the
// queue's depth. A queue that is not incremental is scanned linearly: it is
// re-sorted every pass, and rebuilding the index after each re-sort costs
// more than the scan it would save.
func (p *Planner) PlanEASYSorted(now int64, q *Queue, running []Running, relVersion uint64, free, backfillExtra, maxOwn int, ownReserve func(*job.Job) int) []Start {
	idx, b := p.head(now, q.jobs, running, free, backfillExtra, ownReserve, q.flexible, true, relVersion)
	if idx < len(q.jobs) {
		if q.incremental {
			p.backfillIndexed(q, idx, &b, maxOwn)
		} else {
			p.backfillLinear(q.jobs[idx+1:], &b)
		}
	}
	return p.starts
}

// PlanEASY is the allocation-per-call form of Planner.PlanEASY, retained for
// one-shot callers and the engine's naive reference path.
func PlanEASY(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve func(*job.Job) int, flexible bool) []Start {
	var p Planner
	return p.PlanEASY(now, queue, running, free, backfillExtra, ownReserve, flexible)
}

// startNeed is the smallest node count that lets j start as the (unblocked)
// queue head: its minimum size under flexible sizing, its full size otherwise.
func startNeed(j *job.Job, flexible bool) int {
	if flexible {
		return minStart(j)
	}
	return j.Size
}

// backfill is what phase 3 sizes candidates against: the pools left after
// phase 1 and the blocked head's reservation.
type backfill struct {
	now      int64
	own      func(*job.Job) int // nil: no private reservations
	flexible bool
	free     int   // free pool
	shared   int   // shared reserved capacity (backfillExtra)
	shadow   int64 // the head's reservation time
	extra    int   // nodes spare at the shadow time beyond the head's need
}

func (b *backfill) ownOf(j *job.Job) int {
	if b.own == nil {
		return 0
	}
	return b.own(j)
}

// head runs phases 1 and 2: it replaces p.starts with the jobs started from
// the head of queue and returns the index of the blocked head (len(queue)
// when every job started), with the backfill state for the jobs behind it.
func (p *Planner) head(now int64, queue []*job.Job, running []Running, free, backfillExtra int, ownReserve func(*job.Job) int, flexible, sorted bool, relVer uint64) (int, backfill) {
	b := backfill{now: now, own: ownReserve, flexible: flexible, free: free, shared: backfillExtra}
	p.starts = p.starts[:0]

	// Phase 1: run the head of the queue while it fits.
	idx := 0
	for ; idx < len(queue); idx++ {
		j := queue[idx]
		own := b.ownOf(j)
		avail := b.free + own
		if startNeed(j, flexible) > avail {
			break
		}
		size := j.Size
		if flexible {
			size = chooseSize(j, avail)
		}
		p.starts = append(p.starts, Start{J: j, Size: size})
		b.free -= size - min(own, size)
	}
	if idx == len(queue) {
		return idx, b
	}

	// Phase 2: reservation for the blocked head. The head's own reservation
	// reduces what it needs from the free pool and future releases.
	head := queue[idx]
	headNeed := startNeed(head, flexible) - b.ownOf(head)
	b.shadow, b.extra = p.shadowAndExtra(running, b.free, headNeed, sorted, relVer)
	return idx, b
}

// fit sizes j as a backfill candidate against the current pools. A job the
// pools reject stays rejected for the rest of the pass: the shadow time is
// fixed, the pools only shrink, and admission is monotone in every pool.
func (b *backfill) fit(j *job.Job) (size int, usedExtra, ok bool) {
	// On-demand jobs never run on other jobs' reserved capacity: a squatter
	// is preemptable, and on-demand jobs must not be.
	shared := b.shared
	if j.Class == job.OnDemand {
		shared = 0
	}
	return chooseBackfillSize(b.now, j, b.free, b.ownOf(j), shared, b.shadow, b.extra, b.flexible)
}

// take starts j on the size fit chose and charges its draw to the pools.
func (b *backfill) take(j *job.Job, size int, usedExtra bool) Start {
	// Consumption order: own reservation, then free pool, then shared
	// reserved capacity.
	rest := max(size-b.ownOf(j), 0)
	fromFree := min(rest, b.free)
	// The shared reserve is charged the larger of the physical overflow
	// (nodes the free pool could not supply) and the extra-rule overflow
	// (the part of the draw the head's slack does not cover). Charging only
	// on free-pool underflow let two extra-rule candidates each size against
	// the full shared reserve — the double-spend this fixes.
	reserveUse := rest - fromFree
	if usedExtra {
		reserveUse = max(reserveUse, rest-b.extra)
	}
	b.shared -= reserveUse
	b.free -= fromFree
	if usedExtra {
		b.extra = max(b.extra-(rest-reserveUse), 0)
	}
	return Start{J: j, Size: size}
}

// backfillLinear is phase 3 over every candidate, in queue order.
func (p *Planner) backfillLinear(candidates []*job.Job, b *backfill) {
	for _, j := range candidates {
		if size, usedExtra, ok := b.fit(j); ok {
			p.starts = append(p.starts, b.take(j, size, usedExtra))
		}
	}
}

// backfillIndexed is phase 3 of PlanEASYSorted (see there) behind the
// blocked head q.jobs[idx].
func (p *Planner) backfillIndexed(q *Queue, idx int, b *backfill, maxOwn int) {
	q.index()
	bound := b.free + b.shared + maxOwn
	open := sort.Search(len(q.groups), func(k int) bool { return q.groups[k].need > bound })
	curs := p.curs[:0]
	for g := range open {
		curs = append(curs, cursor{g: g})
	}
	// Phase 1 started q.jobs[:idx] and q.jobs[idx] is the head; in each group
	// those jobs form a prefix, which the group's cursor skips.
	for _, j := range q.jobs[:idx+1] {
		if need := q.need(j); need <= bound {
			curs[q.group(need)].k++
		}
	}
	for {
		// Move each cursor to its group's first job the current pools admit,
		// dropping the groups that hold none. Everything passed over is
		// rejected for the rest of the pass, as the pools only shrink.
		bound = b.free + b.shared + maxOwn
		live := curs[:0]
		for _, c := range curs {
			if b.advance(q, &c, bound) {
				live = append(live, c)
			}
		}
		curs = live
		if len(curs) == 0 {
			break
		}
		// The earliest admissible job in queue order is the start the linear
		// scan makes next.
		first := 0
		for i := 1; i < len(curs); i++ {
			if Less(q.at(curs[i]), q.at(curs[first]), q.ord, b.now, q.odFirst) {
				first = i
			}
		}
		c := &curs[first]
		p.starts = append(p.starts, b.take(q.at(*c), c.size, c.usedExtra))
		c.k++
	}
	p.curs = curs
}

// cursor walks one need group of the queue: it is at q.groups[g].jobs[k],
// which the pools admit at size (usedExtra: by the extra-node rule).
type cursor struct {
	g, k, size int
	usedExtra  bool
}

// at returns the job cursor c is at.
func (q *Queue) at(c cursor) *job.Job { return q.groups[c.g].jobs[c.k] }

// advance moves c to the first job from its position on that the current
// pools admit. It reports false when the group holds none, or needs more
// than bound.
func (b *backfill) advance(q *Queue, c *cursor, bound int) bool {
	g := &q.groups[c.g]
	if g.need > bound {
		return false
	}
	for ; c.k < len(g.jobs); c.k++ {
		var ok bool
		if c.size, c.usedExtra, ok = b.fit(g.jobs[c.k]); ok {
			return true
		}
	}
	return false
}

// shadowAndExtra computes the head job's reservation: the shadow time at
// which headNeed nodes become available (estimate-based), and the number of
// extra nodes left over at that instant beyond the head's need. If the head
// can never be satisfied from running-job releases (e.g. reservations hold
// nodes back), the shadow is unbounded and only the fits-now constraint
// applies to backfill candidates. With sorted unset the release list is
// copied into planner scratch and ordered by (EstEnd, ID) — the caller's
// slice is never reordered; with sorted set the caller guarantees that order
// and the result is memoized under (headNeed, free, relVer).
func (p *Planner) shadowAndExtra(running []Running, free, headNeed int, sorted bool, relVer uint64) (shadow int64, extra int) {
	avail := free
	if avail >= headNeed {
		return maxInt64, avail - headNeed
	}
	rel := running
	if !sorted {
		rel = append(p.rel[:0], running...)
		p.rel = rel
		sort.Slice(rel, func(i, j int) bool { return relLess(rel[i], rel[j]) })
	} else if p.shadowValid && p.shadowHeadNeed == headNeed && p.shadowFree == free && p.shadowRelVer == relVer {
		return p.shadowTime, p.shadowExtra
	}
	shadow, extra = maxInt64, 0
	for _, r := range rel {
		avail += r.Nodes
		if avail >= headNeed {
			shadow, extra = r.EstEnd, avail-headNeed
			break
		}
	}
	if sorted {
		p.shadowValid = true
		p.shadowHeadNeed = headNeed
		p.shadowFree = free
		p.shadowRelVer = relVer
		p.shadowTime = shadow
		p.shadowExtra = extra
	}
	return shadow, extra
}

// minStart is the smallest node count on which j can be started.
func minStart(j *job.Job) int {
	if j.Class == job.Malleable {
		return j.MinSize
	}
	return j.Size
}

// chooseSize picks the start size given available nodes: fixed jobs take
// their size; malleable jobs take the largest size that fits.
func chooseSize(j *job.Job, avail int) int {
	if j.Class != job.Malleable {
		return j.Size
	}
	if avail >= j.Size {
		return j.Size
	}
	return avail // >= MinSize, checked by the caller
}

// estimatedWall returns the scheduler-visible wall time of starting j now on
// n nodes.
func estimatedWall(j *job.Job, n int) int64 {
	if j.Class == job.Malleable {
		return j.EstimatedMalleableWall(n)
	}
	return j.EstimatedWallIfStarted()
}

// chooseBackfillSize picks a feasible backfill size for j, or reports that
// none exists. usedExtra reports that the job relies on the head's
// extra-node slack (it will still be running at the shadow time).
//
// Feasibility of size n: n <= own+free+reservedExtra now, and either the
// estimated end is before the shadow time, or the draw beyond the job's own
// reservation fits within the head's extra slack plus the shared reserved
// capacity — both invisible to the head job (private reservations never
// counted against it, and reserved nodes host only preemptable squatters it
// can displace). For malleable jobs the estimated wall is non-increasing in
// n, so the largest candidate is optimal under the time rule; when only the
// extra rule admits the job, the largest size it admits is own+extra+
// reservedExtra. (The pre-fix fallback capped at own+extra, ignoring the
// reserved headroom the fits-now rule already admitted — undersizing every
// malleable backfill whenever on-demand reservations existed.)
func chooseBackfillSize(now int64, j *job.Job, free, own, reservedExtra int, shadow int64, extra int, flexible bool) (size int, usedExtra, ok bool) {
	capacity := own + free + reservedExtra
	if !flexible || j.Class != job.Malleable {
		size = j.Size
		if size > capacity {
			return 0, false, false
		}
		if shadow == maxInt64 || now+estimatedWall(j, size) <= shadow {
			return size, false, true
		}
		if size-own <= extra+reservedExtra {
			return size, true, true
		}
		return 0, false, false
	}
	upper := j.Size
	if upper > capacity {
		upper = capacity
	}
	if upper < j.MinSize {
		return 0, false, false
	}
	// The time rule is easiest at the largest size.
	if shadow == maxInt64 || now+estimatedWall(j, upper) <= shadow {
		return upper, false, true
	}
	// Time rule fails at every size; fall back to the extra-node rule.
	n := own + extra + reservedExtra
	if n > upper {
		n = upper
	}
	if n >= j.MinSize {
		return n, true, true
	}
	return 0, false, false
}
