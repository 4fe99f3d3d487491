// Package job models the three HPC application classes of the paper — rigid,
// on-demand, and malleable — together with their execution semantics:
// startup overhead, periodic checkpointing of rigid jobs, computation lost to
// preemption, and the linear-speedup work model of malleable jobs
// (t_actual = t_single/n + t_setup, paper §III-A).
//
// A Job carries both its static description (what a trace records) and its
// dynamic execution state. The execution state is advanced exclusively
// through the incarnation methods (Start/FinalizeCompletion/FinalizePreempt
// for fixed-size jobs, Start/UpdateProgress/Resize/FinalizePreempt for
// malleable jobs), which also produce the node-second accounting consumed by
// the metrics ledger.
package job

import (
	"fmt"

	"hybridsched/internal/checkpoint"
)

// Class is the application type.
type Class int

// The three application classes of the paper (§II-A).
const (
	Rigid Class = iota
	OnDemand
	Malleable
)

// String returns the lower-case class name.
func (c Class) String() string {
	switch c {
	case Rigid:
		return "rigid"
	case OnDemand:
		return "on-demand"
	case Malleable:
		return "malleable"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass inverts String: it returns the class named s, and false when s
// names none.
func ParseClass(s string) (Class, bool) {
	for _, c := range []Class{Rigid, OnDemand, Malleable} {
		if s == c.String() {
			return c, true
		}
	}
	return 0, false
}

// NoticeCategory classifies how an on-demand job's advance notice relates to
// its actual arrival (paper Fig. 1).
type NoticeCategory int

// The four notice categories of Figure 1.
const (
	NoNotice NoticeCategory = iota
	AccurateNotice
	ArriveEarly
	ArriveLate
)

// String returns a short label for the category.
func (n NoticeCategory) String() string {
	switch n {
	case NoNotice:
		return "no-notice"
	case AccurateNotice:
		return "accurate"
	case ArriveEarly:
		return "early"
	case ArriveLate:
		return "late"
	}
	return fmt.Sprintf("notice(%d)", int(n))
}

// ParseNotice inverts String: it returns the category labelled s, and false
// when s labels none.
func ParseNotice(s string) (NoticeCategory, bool) {
	for _, n := range []NoticeCategory{NoNotice, AccurateNotice, ArriveEarly, ArriveLate} {
		if s == n.String() {
			return n, true
		}
	}
	return 0, false
}

// State is the lifecycle state of a job.
type State int

// Lifecycle states.
const (
	Future    State = iota // not yet submitted
	Waiting                // in the wait queue (possibly after preemption)
	Running                // holding nodes and executing
	Warning                // malleable job in its two-minute preemption warning
	Completed              // finished
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Future:
		return "future"
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Warning:
		return "warning"
	case Completed:
		return "completed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Usage is a node-second ledger delta produced when an incarnation ends.
// Useful is retained computation, Setup is startup overhead that enabled
// retained computation, Ckpt is completed-checkpoint overhead, and Lost is
// everything discarded by a preemption (unsaved work, in-flight checkpoints,
// and setup that enabled nothing).
type Usage struct {
	Useful int64
	Setup  int64
	Ckpt   int64
	Lost   int64
}

// Total returns the sum of all categories.
func (u Usage) Total() int64 { return u.Useful + u.Setup + u.Ckpt + u.Lost }

// add accumulates o into u.
func (u *Usage) add(o Usage) {
	u.Useful += o.Useful
	u.Setup += o.Setup
	u.Ckpt += o.Ckpt
	u.Lost += o.Lost
}

// Job is a single application instance. Fields up to "dynamic state" are the
// static description a trace records; the rest evolves during simulation.
type Job struct {
	ID      int
	Project int
	Class   Class

	SubmitTime int64 // first submission (actual arrival for on-demand jobs)
	Size       int   // requested nodes; maximum size for malleable jobs
	MinSize    int   // minimum size (malleable only; == Size otherwise)
	Work       int64 // actual pure compute seconds at Size nodes
	Estimate   int64 // user runtime estimate (>= Work) at Size nodes
	SetupTime  int64 // per-(re)start setup seconds

	Ckpt checkpoint.Plan // rigid jobs only

	// On-demand notice information (on-demand jobs only).
	Notice     NoticeCategory
	NoticeTime int64 // when the advance notice is received (== SubmitTime when NoNotice)
	EstArrival int64 // arrival estimate carried by the notice

	// --- dynamic state ---
	State        State
	CurSize      int   // nodes currently held (0 unless Running/Warning)
	StartTime    int64 // first time the job ever started (-1 before)
	EndTime      int64 // completion time (-1 before)
	PreemptCount int   // times preempted
	ShrinkCount  int   // times shrunk for an on-demand job
	Acct         Usage // lifetime node-second ledger

	// Rigid/on-demand incarnation state.
	saved      int64 // work seconds retained from previous incarnations
	incStart   int64 // current incarnation start time
	incWall    int64 // wall length of current incarnation if undisturbed
	incEstWall int64 // estimate-based wall length fixed at incarnation start

	// Malleable work state (node-seconds).
	totalWork  int64 // Work * Size
	remWork    int64 // remaining node-seconds
	setupEnd   int64 // current incarnation: when setup completes
	lastUpdate int64 // last time remWork/accounting was advanced
	incSetup   int64 // node-seconds of setup spent this incarnation
	incUseful  int64 // node-seconds of useful work this incarnation
}

// NewRigid builds a rigid job.
func NewRigid(id, project int, submit int64, size int, work, estimate, setup int64, plan checkpoint.Plan) *Job {
	j := newJob(id, project, Rigid, submit, size, work, estimate, setup)
	j.Ckpt = plan
	return j
}

// NewOnDemand builds an on-demand job. submit is the actual arrival time;
// notice describes the advance-notice category with its notice and estimated
// arrival times (pass notice == submit and estArrival == submit for NoNotice).
func NewOnDemand(id, project int, submit int64, size int, work, estimate, setup int64, cat NoticeCategory, notice, estArrival int64) *Job {
	j := newJob(id, project, OnDemand, submit, size, work, estimate, setup)
	j.Notice = cat
	j.NoticeTime = notice
	j.EstArrival = estArrival
	return j
}

// NewMalleable builds a malleable job with maximum size maxSize and minimum
// size minSize. work and estimate are expressed at maxSize, following the
// paper ("job estimate runtime when running at maximum job size").
func NewMalleable(id, project int, submit int64, maxSize, minSize int, work, estimate, setup int64) *Job {
	if minSize < 1 || minSize > maxSize {
		panic(fmt.Sprintf("job %d: invalid malleable sizes min=%d max=%d", id, minSize, maxSize))
	}
	j := newJob(id, project, Malleable, submit, maxSize, work, estimate, setup)
	j.MinSize = minSize
	j.totalWork = work * int64(maxSize)
	j.remWork = j.totalWork
	return j
}

func newJob(id, project int, class Class, submit int64, size int, work, estimate, setup int64) *Job {
	if size < 1 {
		panic(fmt.Sprintf("job %d: size %d < 1", id, size))
	}
	if work < 1 {
		work = 1
	}
	if estimate < work {
		estimate = work
	}
	if setup < 0 {
		setup = 0
	}
	return &Job{
		ID:         id,
		Project:    project,
		Class:      class,
		SubmitTime: submit,
		Size:       size,
		MinSize:    size,
		Work:       work,
		Estimate:   estimate,
		SetupTime:  setup,
		State:      Future,
		StartTime:  -1,
		EndTime:    -1,
	}
}

// Turnaround returns completion minus submission. It panics if the job has
// not completed.
func (j *Job) Turnaround() int64 {
	if j.EndTime < 0 {
		panic(fmt.Sprintf("job %d: Turnaround before completion", j.ID))
	}
	return j.EndTime - j.SubmitTime
}

// StartDelay returns the first-start time minus submission. It panics if the
// job never started.
func (j *Job) StartDelay() int64 {
	if j.StartTime < 0 {
		panic(fmt.Sprintf("job %d: StartDelay before start", j.ID))
	}
	return j.StartTime - j.SubmitTime
}

// RemainingWork returns, for malleable jobs, the outstanding node-seconds as
// of the last progress update.
func (j *Job) RemainingWork() int64 { return j.remWork }

// SavedWork returns, for rigid jobs, the checkpoint-retained work seconds.
func (j *Job) SavedWork() int64 { return j.saved }
