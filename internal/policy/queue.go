package policy

import (
	"slices"
	"sort"

	"hybridsched/internal/job"
)

// Queue is a scheduler's waiting queue in policy order, with a need index
// beside it: the queued jobs grouped by start need (Size, or MinSize for a
// malleable job under flexible sizing), each group in queue order, groups
// ascending by need. Beside each job the index records its estimated wall at
// full size, and each group the least of its jobs' walls. On an incremental
// queue the index gives PlanEASYSorted the exact smallest start need in O(1)
// and lets its backfill phase visit only jobs that could fit. It is built on
// the first plan that reads it, kept up to date by every insertion and
// removal from then on, and dropped by a re-sort or Load until its next use.
//
// A queue is incremental exactly when its ordering is time-invariant: it
// keeps policy order as jobs come and go (binary-search insertion and
// removal), which requires an ordering that is total on distinct jobs (all
// built-ins break ties by ID), since insertion and the index merge rely on
// Less alone to place a job. Under a time-dependent ordering jobs append,
// and Sort restores policy order at a given instant.
type Queue struct {
	ord         Ordering
	odFirst     bool
	flexible    bool
	incremental bool

	jobs    []*job.Job
	indexed bool          // groups hold the index of jobs
	groups  []needGroup   // ascending by need, none empty
	spare   [][]walledJob // emptied group backing arrays, for reuse
}

// needGroup holds the queued jobs of one start need, in queue order, and the
// least of their recorded walls.
type needGroup struct {
	need    int
	minWall int64
	jobs    []walledJob
}

// walledJob is a job in the need index with its estimated wall at full size,
// estimatedWall(j, j.Size): the wall of a fixed-size job's only start size,
// and the shortest wall of a malleable job, whose wall does not grow with its
// size. It holds while the job waits, as the engine writes only a queued
// job's State.
type walledJob struct {
	j    *job.Job
	wall int64
}

// jobAt returns the k-th job of g.
func (g *needGroup) jobAt(k int) *job.Job { return g.jobs[k].j }

// insertAt puts j at position k of g with its wall, lowering g's minimum.
func (g *needGroup) insertAt(k int, j *job.Job) {
	w := estimatedWall(j, j.Size)
	g.jobs = slices.Insert(g.jobs, k, walledJob{j: j, wall: w})
	g.minWall = min(g.minWall, w)
}

// removeAt removes g's k-th job, rescanning for the minimum when the job held
// it.
func (g *needGroup) removeAt(k int) {
	w := g.jobs[k].wall
	g.jobs = slices.Delete(g.jobs, k, k+1)
	if w == g.minWall {
		g.minWall = maxInt64
		for _, e := range g.jobs {
			g.minWall = min(g.minWall, e.wall)
		}
	}
}

// NewQueue returns an empty queue ordered by ord, with the on-demand-first
// rule when onDemandFirst is set (see Less), grouping malleable jobs by their
// minimum size when flexible is set. The queue is incremental when ord is
// time-invariant.
func NewQueue(ord Ordering, onDemandFirst, flexible bool) Queue {
	return Queue{
		ord:         ord,
		odFirst:     onDemandFirst,
		flexible:    flexible,
		incremental: TimeInvariant(ord),
	}
}

// Len returns the number of queued jobs.
func (q *Queue) Len() int { return len(q.jobs) }

// Jobs returns the queue in its current order. The slice is owned by the
// queue and valid until its next mutation.
func (q *Queue) Jobs() []*job.Job { return q.jobs }

// minNeed returns the smallest start need of any queued job, or the largest
// int when the queue is empty.
func (q *Queue) minNeed() int {
	q.index()
	if len(q.groups) == 0 {
		return maxInt
	}
	return q.groups[0].need
}

// maxInt is minNeed of an empty queue.
const maxInt = int(^uint(0) >> 1)

func (q *Queue) need(j *job.Job) int { return startNeed(j, q.flexible) }

// jobAt returns the k-th queued job.
func (q *Queue) jobAt(k int) *job.Job { return q.jobs[k] }

// pos returns where j belongs among n jobs in policy order, the k-th of them
// at(k): before the first that does not order before it.
func (q *Queue) pos(n int, at func(int) *job.Job, j *job.Job, now int64) int {
	return sort.Search(n, func(k int) bool { return !Less(at(k), j, q.ord, now, q.odFirst) })
}

// Insert adds j at its policy position at time now, or at the end of a
// queue that is not incremental. j must not be queued already.
func (q *Queue) Insert(j *job.Job, now int64) {
	// Arrivals mostly belong at the end, which also puts them at the end of
	// their group.
	i := len(q.jobs)
	if q.incremental && i > 0 && !Less(q.jobs[i-1], j, q.ord, now, q.odFirst) {
		i = q.pos(i, q.jobAt, j, now)
	}
	q.jobs = slices.Insert(q.jobs, i, j)
	if !q.indexed {
		return
	}
	g := &q.groups[q.group(q.need(j))]
	k := len(g.jobs)
	if i < len(q.jobs)-1 {
		k = q.pos(k, g.jobAt, j, now)
	}
	g.insertAt(k, j)
}

// Remove deletes j from the queue and reports whether it was queued. An
// incremental queue finds it by binary search, any other by a scan.
func (q *Queue) Remove(j *job.Job, now int64) bool {
	i, ok := q.find(len(q.jobs), q.jobAt, j, now)
	if !ok {
		return false
	}
	q.jobs = deleteAt(q.jobs, i)
	if !q.indexed {
		return true
	}
	gi := q.group(q.need(j))
	g := &q.groups[gi]
	if k, ok := q.find(len(g.jobs), g.jobAt, j, now); ok {
		g.removeAt(k)
	}
	if len(g.jobs) == 0 {
		q.spare = append(q.spare, g.jobs)
		q.groups = slices.Delete(q.groups, gi, gi+1)
	}
	return true
}

// deleteAt removes s[i], shifting whichever side of it is shorter: jobs
// mostly leave from the front of a deep queue.
func deleteAt(s []*job.Job, i int) []*job.Job {
	if i >= len(s)/2 {
		return slices.Delete(s, i, i+1)
	}
	copy(s[1:i+1], s[:i])
	s[0] = nil
	return s[1:]
}

// find locates j among n jobs in queue order, the k-th of them at(k). Jobs
// mostly leave from the front, so that is tried first.
func (q *Queue) find(n int, at func(int) *job.Job, j *job.Job, now int64) (int, bool) {
	if n > 0 && at(0) == j {
		return 0, true
	}
	if !q.incremental {
		for i := range n {
			if at(i) == j {
				return i, true
			}
		}
		return -1, false
	}
	i := q.pos(n, at, j, now)
	return i, i < n && at(i) == j
}

// group returns the index of need's group, creating the group if absent.
func (q *Queue) group(need int) int {
	i, k := 0, len(q.groups)
	for i < k {
		if h := int(uint(i+k) >> 1); q.groups[h].need < need {
			i = h + 1
		} else {
			k = h
		}
	}
	if i == len(q.groups) || q.groups[i].need != need {
		var jobs []walledJob
		if n := len(q.spare); n > 0 {
			jobs, q.spare = q.spare[n-1], q.spare[:n-1]
		}
		q.groups = slices.Insert(q.groups, i, needGroup{need: need, minWall: maxInt64, jobs: jobs})
	}
	return i
}

// Sort restores policy order at time now: a stable sort for a queue that is
// not incremental, which the index then no longer reflects; nothing for one
// that is.
func (q *Queue) Sort(now int64) {
	if q.incremental {
		return
	}
	Sort(q.jobs, q.ord, now, q.odFirst)
	q.dropIndex()
}

// index builds the need index if it is not current.
func (q *Queue) index() {
	if q.indexed {
		return
	}
	q.indexed = true
	for _, j := range q.jobs {
		g := &q.groups[q.group(q.need(j))]
		g.insertAt(len(g.jobs), j)
	}
}

// dropIndex empties the need index, keeping its group arrays for reuse.
func (q *Queue) dropIndex() {
	for _, g := range q.groups {
		clear(g.jobs)
		q.spare = append(q.spare, g.jobs[:0])
	}
	q.groups = q.groups[:0]
	q.indexed = false
}

// Admits reports whether jobs could be this queue's contents at time now:
// no job twice, and for an incremental queue strict policy order.
func (q *Queue) Admits(jobs []*job.Job, now int64) bool {
	if q.incremental {
		for i := 1; i < len(jobs); i++ {
			if !Less(jobs[i-1], jobs[i], q.ord, now, q.odFirst) {
				return false
			}
		}
		return true
	}
	seen := make(map[*job.Job]bool, len(jobs))
	for _, j := range jobs {
		if seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// Load replaces the queue's contents with jobs, which must already be in
// queue order. The queue takes ownership of jobs.
func (q *Queue) Load(jobs []*job.Job) {
	q.jobs = jobs
	q.dropIndex()
}
