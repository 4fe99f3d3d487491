package hybridsched

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hybridsched/internal/core"
	"hybridsched/internal/runner"
)

// SweepSpec is one cell of a sweep grid: a workload to replay and a
// simulation configuration to replay it under. The workload is either a
// generator config (Workload) or a source spec (Source — see ParseSource);
// Source takes precedence when both are set. Identical workload configs, and
// identical source specs, share one materialized trace across the whole
// sweep, so replaying one SWF import under every mechanism reads the file
// once. Label tags the cell in progress lines and serialized output.
// Sim.Mechanism and Sim.Policy accept any name the registries resolve,
// including schedulers and policies added with RegisterScheduler/
// RegisterPolicy; Source heads likewise resolve names added with
// RegisterSource.
type SweepSpec struct {
	Label    string
	Source   string
	Workload WorkloadConfig
	Sim      SimulationConfig

	// FaultMTBF, when positive, injects node failures at this system MTBF
	// (seconds) into the cell. FaultMeanRepair is the mean node repair time
	// (0 = instant repair, the legacy shortcut: capacity never shrinks). The
	// failure timeline derives from the workload seed (or the cell
	// coordinates for source-backed cells), so sweeps stay deterministic.
	FaultMTBF       float64
	FaultMeanRepair float64

	// Drains schedules maintenance windows on the cell (see DrainSpec).
	Drains []DrainSpec
}

// ParseDrains parses a comma-separated list of maintenance windows in the
// form "start+duration:nodes", where start and duration are Go duration
// strings: "24h+4h:128" drains 128 nodes for four hours starting at virtual
// hour 24, and "24h+4h:128,72h+30m:64" schedules two windows. An empty
// string yields no windows.
func ParseDrains(s string) ([]DrainSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []DrainSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		timespec, nodespec, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("hybridsched: drain %q: want start+duration:nodes", part)
		}
		startStr, durStr, ok := strings.Cut(timespec, "+")
		if !ok {
			return nil, fmt.Errorf("hybridsched: drain %q: want start+duration:nodes", part)
		}
		start, err := time.ParseDuration(startStr)
		if err != nil {
			return nil, fmt.Errorf("hybridsched: drain %q: bad start: %w", part, err)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("hybridsched: drain %q: bad duration: %w", part, err)
		}
		nodes, err := strconv.Atoi(nodespec)
		if err != nil {
			return nil, fmt.Errorf("hybridsched: drain %q: bad node count: %w", part, err)
		}
		if start < 0 || dur <= 0 || nodes < 1 {
			return nil, fmt.Errorf("hybridsched: drain %q: start must be >= 0, duration and nodes positive", part)
		}
		out = append(out, DrainSpec{
			Start:    int64(start / time.Second),
			Duration: int64(dur / time.Second),
			Nodes:    nodes,
		})
	}
	return out, nil
}

// SweepResult is the structured outcome of one sweep cell. Err is non-empty
// when the cell failed (including a panic inside the simulator); failures
// are isolated and never abort the rest of the sweep.
type SweepResult struct {
	Spec   SweepSpec
	Report Report
	Err    string
}

// SweepOptions control sweep execution; they affect speed and reporting,
// never results.
type SweepOptions struct {
	// Workers bounds the goroutine pool; <= 0 means runtime.NumCPU().
	Workers int
	// Progress receives one line per completed cell plus a wall-clock
	// summary (nil = quiet).
	Progress io.Writer

	// CheckpointDir, when non-empty, persists per-cell progress into this
	// directory: an engine snapshot every CheckpointEvery events while a cell
	// runs, and the cell's final report when it completes. A sweep killed at
	// any instant can then be rerun with Resume set and emits byte-identical
	// output: finished cells are skipped, interrupted cells continue from
	// their snapshots, and anything torn or stale falls back to a fresh run.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval in simulation events; <= 0
	// takes a default suited to multi-week cells.
	CheckpointEvery int
	// Resume loads completed and in-flight cells from CheckpointDir.
	Resume bool
}

// SweepReport is a completed sweep: one SweepResult per SweepSpec, in grid
// order regardless of worker count or completion order.
type SweepReport struct {
	Results []SweepResult

	sweep runner.Sweep
}

// WriteJSON serializes the sweep as an indented JSON array, one object per
// cell in grid order. Wall-clock measurements are excluded, so output is
// byte-identical across machines and worker counts.
func (r *SweepReport) WriteJSON(w io.Writer) error { return r.sweep.WriteJSON(w) }

// WriteCSV serializes the sweep as CSV, one row per cell in grid order, with
// the same determinism guarantee as WriteJSON.
func (r *SweepReport) WriteCSV(w io.Writer) error { return r.sweep.WriteCSV(w) }

// RunSweep executes every cell of the grid across a bounded worker pool. The
// grid is deterministic: results arrive in grid order and are bit-identical
// for any Workers value. A failing or panicking cell is reported in its
// SweepResult (and in the returned error, which wraps the first failure)
// while the rest of the sweep completes.
func RunSweep(specs []SweepSpec, opt SweepOptions) (*SweepReport, error) {
	rspecs := make([]runner.Spec, len(specs))
	for i, s := range specs {
		// The knobs go in as given; each cell fills in their defaults when it
		// runs, as NewSession does. Only the size is filled here, or the
		// cell's would follow its workload's.
		r := s.Sim.applyTo(runner.Recipe{})
		rspecs[i] = runner.Spec{
			Group:           "sweep",
			Variant:         s.Label,
			Mechanism:       r.Mechanism,
			Policy:          r.Policy,
			Nodes:           r.WithDefaults().Nodes,
			Source:          s.Source,
			Workload:        s.Workload,
			Core:            core.Config(r.SchedulerConfig()),
			MTBF:            r.MTBF,
			CkptFreqMult:    r.CkptFreqMult,
			Validate:        r.Validate,
			FaultMTBF:       s.FaultMTBF,
			FaultMeanRepair: s.FaultMeanRepair,
			Drains:          s.Drains,
		}
	}
	sweep := runner.Run(rspecs, runner.Options{
		Workers:         opt.Workers,
		Progress:        opt.Progress,
		CheckpointDir:   opt.CheckpointDir,
		CheckpointEvery: opt.CheckpointEvery,
		Resume:          opt.Resume,
	})
	rep := &SweepReport{sweep: sweep, Results: make([]SweepResult, len(sweep.Results))}
	for i, res := range sweep.Results {
		rep.Results[i] = SweepResult{Spec: specs[i], Report: res.Report, Err: res.Err}
	}
	return rep, sweep.Err()
}
