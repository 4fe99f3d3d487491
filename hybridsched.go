// Package hybridsched is a trace-driven simulator and scheduling library for
// hybrid HPC workloads, reproducing "Hybrid Workload Scheduling on HPC
// Systems" (Fan, Lan, Rich, Allcock, Papka — IPDPS 2022, arXiv:2109.05412).
//
// A single HPC system serves three application classes at once:
//
//   - rigid jobs: fixed size, periodic defensive checkpoints;
//   - on-demand jobs: time-critical, must start (nearly) instantly, may
//     announce themselves 15–30 minutes ahead of arrival;
//   - malleable jobs: resizable between a minimum and maximum node count
//     with linear speedup.
//
// The library provides the paper's six co-scheduling mechanisms
// ({N, CUA, CUP} × {PAA, SPAA}), a FCFS/EASY-backfilling baseline, a
// calibrated synthetic workload generator modeled on the 2019 Theta (ALCF)
// trace, and the experiment drivers that regenerate every table and figure
// of the paper's evaluation.
//
// # Sessions
//
// The primary entry point is the Session: an incremental, observable
// simulation whose lifecycle is construct → observe → submit/step →
// snapshot → report.
//
//	s, _ := hybridsched.NewSession(
//		hybridsched.WithMechanism("CUA&SPAA"),
//		hybridsched.WithNodes(512),
//	)
//	events := s.Events()          // typed scheduling-event stream
//	for _, r := range records {
//		s.Submit(r)           // jobs may also arrive mid-run
//	}
//	s.RunUntil(24 * hybridsched.Hour)
//	snap := s.Snapshot()          // live cluster/queue/metrics state
//	report, _ := s.Run()          // drain to completion
//
// Jobs can be submitted at any virtual time — including while the
// simulation runs, the online-scheduling scenario the paper's on-demand
// class models — and Observers (or the channel adapter Events) see every
// arrival, notice, start, end, warning, preemption, shrink, expand, and
// checkpoint rollback as it happens.
//
// # Workload sources
//
// Every way jobs enter a simulation is one composable abstraction: a Source
// yields records in time order, and sources compose. Synthetic wraps the
// calibrated Theta generator, FromCSV/FromSWF/OpenSource stream trace files
// (a multi-week log is never slurped into memory), FromRecords adapts hand-
// built slices, and the combinators Merge, Scale, Relabel, Filter, Shift,
// and Limit transform them — Relabel being the paper's §IV-A trick of
// reassigning classes project-by-project, the supported way to promote
// rigid SWF imports to on-demand or malleable jobs. Sessions consume
// sources lazily via SubmitSource (or the WithSource option); sweeps name
// them declaratively via SweepSpec.Source; CLIs and grids share the
// ParseSource spec grammar ("swf:theta.swf|relabel:paper|scale:1.2"); and
// RegisterSource adds user-defined spec heads, mirroring the scheduler and
// policy registries.
//
// # Batch simulation and migration
//
// Simulate remains the one-call batch entry point:
//
//	records, _ := hybridsched.GenerateWorkload(hybridsched.WorkloadConfig{Seed: 1, Weeks: 1})
//	report, _ := hybridsched.Simulate(hybridsched.SimulationConfig{Mechanism: "CUA&SPAA"}, records)
//	fmt.Printf("utilization %.1f%%, instant starts %.1f%%\n",
//		100*report.Utilization, 100*report.InstantStartRate)
//
// Simulate is a thin wrapper over a Session (construct, pre-submit every
// record, Run), so both paths produce identical reports; callers with valid
// traces need no changes (records are now validated on submission — see
// Simulate). Code that wants live observation, mid-run submission, or
// periodic snapshots should migrate to NewSession — Simulate(cfg, records)
// is exactly NewSession(WithConfig(cfg)) + Submit loop + Run().
//
// # Degraded capacity
//
// Node availability is part of the engine model: WithFaults injects node
// failures (each strikes a uniformly random node, interrupts whatever holds
// it, and removes the node for a drawn repair time) and WithDrain schedules
// maintenance windows that absorb free capacity without preempting. Both
// shrink the pool every scheduler pass plans against, stream as typed
// EventNodeDown/EventNodeUp/EventDrain events, and surface telemetry in the
// Report (FailuresInjected, FailureMisses, DownNodeSeconds, and the
// Unavailable utilization share). Sweeps take the same knobs per cell via
// SweepSpec, and cmd/hybridsim / cmd/expdriver expose -mtbf, -repair, and
// -drain flags (expdriver's "resilience" experiment sweeps the grid).
//
// # Extension points
//
// Scheduling logic and queue orderings are pluggable by name:
// RegisterScheduler adds a user-defined Scheduler (the public face of the
// engine's mechanism interface; embed Baseline for no-op defaults) and
// RegisterPolicy adds a QueuePolicy. Registered names work everywhere
// built-ins do: Simulate, NewSession, RunSweep, and the CLI tools.
//
// # Sweeps
//
// RunSweep executes whole experiment grids — (mechanism × workload × seed ×
// config) cells — across a bounded worker pool with deterministic, grid-
// ordered results: the same grid serializes to byte-identical JSON/CSV for
// any worker count, identical workload configs share one generated trace,
// and a failing cell never aborts its siblings.
//
// See examples/ for runnable scenarios (examples/livedashboard drives a
// Session) and cmd/ for the CLI tools.
package hybridsched

import (
	"io"

	"hybridsched/internal/exp"
	"hybridsched/internal/job"
	"hybridsched/internal/metrics"
	"hybridsched/internal/runner"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// Job classes (re-exported from the job model).
type JobClass = job.Class

// The three application classes of the paper.
const (
	Rigid     = job.Rigid
	OnDemand  = job.OnDemand
	Malleable = job.Malleable
)

// NoticeCategory classifies how an on-demand job's advance notice relates to
// its actual arrival (paper Fig. 1).
type NoticeCategory = job.NoticeCategory

// The four notice categories.
const (
	NoNotice       = job.NoNotice
	AccurateNotice = job.AccurateNotice
	ArriveEarly    = job.ArriveEarly
	ArriveLate     = job.ArriveLate
)

// Record is one job of a trace (native CSV schema).
type Record = trace.Record

// Report carries the measurements of one simulation run: turnaround
// statistics per class, the instant-start rates, preemption ratios, the
// exact node-second utilization ledger, and the per-job outcomes.
type Report = metrics.Report

// JobResult is the outcome of one completed job.
type JobResult = metrics.JobResult

// WorkloadConfig parameterizes the synthetic Theta-model generator. The zero
// value (plus a Seed) produces the paper-faithful default workload.
type WorkloadConfig = workload.Config

// NoticeMix is the distribution of on-demand jobs over the four advance-
// notice categories, in the order: none, accurate, early, late (Table III).
type NoticeMix = workload.NoticeMix

// The five advance-notice mixes of Table III.
var (
	W1 = workload.W1
	W2 = workload.W2
	W3 = workload.W3
	W4 = workload.W4
	W5 = workload.W5
)

// MixByName returns a Table III mix by its paper name ("W1".."W5").
func MixByName(name string) (NoticeMix, error) { return workload.MixByName(name) }

// ExperimentOptions scale the paper-reproduction experiment drivers.
type ExperimentOptions = exp.Options

// Mechanisms returns the built-in scheduler names: "baseline" (plain
// FCFS/EASY, Table II) plus the paper's six mechanisms in order
// ("N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA").
// SchedulerNames additionally includes user-registered schedulers.
func Mechanisms() []string { return exp.Mechanisms() }

// SimulationConfig selects the scheduler and system model for Simulate.
type SimulationConfig struct {
	// Nodes is the system size (default 4392, Theta).
	Nodes int
	// Mechanism is one of Mechanisms() (default "CUA&SPAA").
	Mechanism string
	// Policy orders the waiting queue: fcfs (default), sjf, ljf, wfp3.
	Policy string
	// MTBF is the system mean time between failures in seconds, driving
	// Daly's optimal checkpoint interval for rigid jobs (default 24 h).
	MTBF float64
	// CheckpointFreqMult scales the checkpoint interval around the Daly
	// optimum: 0.5 checkpoints twice as often (Fig. 7). Zero takes the
	// default 1.0; a negative value expresses an explicit zero (defensive
	// checkpointing disabled). The Session option WithCheckpointFreqMult
	// expresses zero directly.
	CheckpointFreqMult float64
	// BackfillReserved lets backfill jobs run on reserved nodes and be
	// preempted on the on-demand arrival (paper §III-B.1 option).
	BackfillReserved bool
	// NoDirectedReturn disables the return-to-lender rule (§III-B.3);
	// returned nodes drop into the common pool instead.
	NoDirectedReturn bool
	// ReleaseThresholdSeconds holds reserved nodes for a no-show on-demand
	// job this long past its estimated arrival. Zero takes the default
	// 600 s; a negative value expresses an explicit zero-second threshold
	// (release the instant the estimated arrival passes). The Session
	// option WithReleaseThreshold expresses zero directly.
	ReleaseThresholdSeconds int64
	// Validate checks the cluster partition invariant after every event and
	// every scheduler pass against a plan computed from scratch, failing the
	// run on a mismatch (for tests; slows long runs down). The checks only
	// read, so they change no output.
	Validate bool
}

// applyTo returns r with its knobs set to the configuration's, as given:
// the recipe's WithDefaults fills in the defaults, and reads a negative
// multiplier as an explicit zero as this type does.
func (c SimulationConfig) applyTo(r runner.Recipe) runner.Recipe {
	r.Nodes, r.Mechanism, r.Policy = c.Nodes, c.Mechanism, c.Policy
	r.MTBF, r.CkptFreqMult = c.MTBF, c.CheckpointFreqMult
	r.BackfillReserved, r.NoDirectedReturn = c.BackfillReserved, c.NoDirectedReturn
	r.ReleaseThreshold, r.Validate = c.ReleaseThresholdSeconds, c.Validate
	return r
}

// GenerateWorkload synthesizes a hybrid job trace; the same config and seed
// always produce the same trace.
func GenerateWorkload(cfg WorkloadConfig) ([]Record, error) {
	return workload.Generate(cfg)
}

// Simulate replays records under cfg and returns the measurement report.
//
// It is a thin wrapper over the Session API — NewSession with the same
// configuration, every record pre-submitted, and Run — and produces reports
// identical to the incremental path. Records are now validated on
// submission (see Session.Submit): malformed records that earlier versions
// silently accepted fail fast with a descriptive error. New code that needs
// mid-run observation, online submission, or custom schedulers should use
// NewSession directly; Simulate remains the one-call batch entry point.
func Simulate(cfg SimulationConfig, records []Record) (Report, error) {
	s, err := NewSession(WithConfig(cfg))
	if err != nil {
		return Report{}, err
	}
	for _, r := range records {
		if err := s.Submit(r); err != nil {
			return Report{}, err
		}
	}
	return s.Run()
}

// ReadTraceCSV parses a trace in the native CSV schema.
func ReadTraceCSV(r io.Reader) ([]Record, error) { return trace.ReadCSV(r) }

// WriteTraceCSV writes a trace in the native CSV schema.
func WriteTraceCSV(w io.Writer, records []Record) error { return trace.WriteCSV(w, records) }

// ReadSWF imports a Standard Workload Format trace; every job arrives rigid
// (SWF carries no hybrid extensions — compose Relabel to reassign classes).
// Use ReadSWFSummary to additionally learn what the importer skipped and
// defaulted, or FromSWF to stream the file instead of slurping it.
func ReadSWF(r io.Reader) ([]Record, error) { return trace.ReadSWF(r) }

// WriteSWF exports a trace as SWF (hybrid extensions are dropped).
func WriteSWF(w io.Writer, records []Record) error { return trace.WriteSWF(w, records) }

// FormatDuration renders virtual-time seconds compactly, e.g. "15.6h".
func FormatDuration(seconds int64) string { return simtime.Format(seconds) }
