package runner

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"

	"hybridsched/internal/metrics"
	"hybridsched/internal/sim"
)

// defaultCheckpointEvery is the snapshot interval, in dispatched events, when
// Options.CheckpointDir is set without an explicit interval. At the paper's
// scale a cell dispatches a few thousand events per simulated day, so this
// checkpoints long cells every few simulated weeks while costing short cells
// nothing.
const defaultCheckpointEvery = 50000

// ckptState is the resolved checkpoint configuration of one Run call.
type ckptState struct {
	dir    string
	every  int
	resume bool
}

// ckpt resolves the checkpoint options; nil when checkpointing is off.
func (o Options) ckpt() *ckptState {
	if o.CheckpointDir == "" {
		return nil
	}
	every := o.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	return &ckptState{dir: o.CheckpointDir, every: every, resume: o.Resume}
}

// cellKeyVersion heads every cell key. Bump it only to rename every cell
// file on purpose, when an existing key must stop matching its old files.
const cellKeyVersion = "cell/v1"

// cellID names a cell's checkpoint files: a stable hash of the version tag
// and the fully resolved spec, written field by field under fixed names, so
// any knob change — policy, node count, drains, fault process — yields fresh
// files instead of resuming foreign state. Zero values are left out, so a
// field added later changes no existing key while it stays zero; renaming
// or reordering the Go fields changes none either.
func cellID(s Spec) string {
	h := fnv.New64a()
	io.WriteString(h, cellKeyVersion)
	// add writes one "name=value" line, leaving out zero values and empty
	// slices. Strings are quoted, so no value can forge another field's line.
	add := func(name string, v any) {
		rv := reflect.ValueOf(v)
		if rv.IsZero() || (rv.Kind() == reflect.Slice && rv.Len() == 0) {
			return
		}
		if rv.Kind() == reflect.String {
			v = strconv.Quote(rv.String())
		}
		fmt.Fprintf(h, "\n%s=%v", name, v)
	}
	add("group", s.Group)
	add("variant", s.Variant)
	add("mechanism", s.Mechanism)
	add("policy", s.Policy)
	add("nodes", s.Nodes)
	add("source", s.Source)
	w := s.Workload
	add("workload.seed", w.Seed)
	add("workload.nodes", w.Nodes)
	add("workload.weeks", w.Weeks)
	add("workload.span", w.Span)
	add("workload.projects", w.Projects)
	add("workload.target_load", w.TargetLoad)
	add("workload.min_job_size", w.MinJobSize)
	add("workload.max_runtime", w.MaxRuntime)
	add("workload.min_runtime", w.MinRuntime)
	add("workload.size_weights", w.SizeWeights)
	add("workload.size_buckets", w.SizeBuckets)
	add("workload.runtime_median", w.RuntimeMedian)
	add("workload.runtime_sigma", w.RuntimeSigma)
	add("workload.ondemand_project_frac", w.OnDemandProjectFrac)
	add("workload.rigid_project_frac", w.RigidProjectFrac)
	add("workload.mix", w.Mix)
	add("workload.notice_lead_min", w.NoticeLeadMin)
	add("workload.notice_lead_max", w.NoticeLeadMax)
	add("workload.late_window", w.LateWindow)
	add("workload.ondemand_max_gen", w.OnDemandMaxGen)
	add("workload.malleable_min_frac", w.MalleableMinFrac)
	add("workload.rigid_setup_min", w.RigidSetupMin)
	add("workload.rigid_setup_max", w.RigidSetupMax)
	add("workload.malleable_setup_min", w.MalleableSetupMin)
	add("workload.malleable_setup_max", w.MalleableSetupMax)
	add("workload.jobs_per_session", w.JobsPerSession)
	add("workload.ondemand_jobs_per_session", w.OnDemandJobsPerSession)
	add("core.release_threshold", s.Core.ReleaseThreshold)
	add("core.directed_return", s.Core.DirectedReturn)
	add("core.backfill_reserved", s.Core.BackfillReserved)
	add("mtbf", s.MTBF)
	add("ckpt_freq_mult", s.CkptFreqMult)
	add("validate", s.Validate)
	add("fault.mtbf", s.FaultMTBF)
	add("fault.repair", s.FaultMeanRepair)
	add("fault.seed", s.FaultSeed)
	add("fault.horizon", s.FaultHorizon)
	for i, d := range s.Drains {
		p := fmt.Sprintf("drain%d.", i)
		add(p+"start", d.Start)
		add(p+"duration", d.Duration)
		add(p+"nodes", d.Nodes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (c *ckptState) snapPath(s Spec) string {
	return filepath.Join(c.dir, "cell-"+cellID(s)+".snap")
}

func (c *ckptState) donePath(s Spec) string {
	return filepath.Join(c.dir, "cell-"+cellID(s)+".done.json")
}

// atomicWrite persists data via a temp file + rename, so a kill mid-write
// can never leave a half-written file under the final name. (A torn snapshot
// would be rejected by its CRC anyway; a torn done file by its JSON parse.)
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// loadDone returns the cell's persisted final report, if a valid done file
// exists.
func (c *ckptState) loadDone(s Spec) (metrics.Report, bool) {
	data, err := os.ReadFile(c.donePath(s))
	if err != nil {
		return metrics.Report{}, false
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return metrics.Report{}, false
	}
	return rep, true
}

// tryRestore loads the cell's snapshot into the freshly built engine.
// Anything wrong — no file, torn write, version skew, spec drift the hash
// missed — falls back to a fresh run, which is always correct, just slower.
func (c *ckptState) tryRestore(s Spec, e *sim.Engine) bool {
	data, err := os.ReadFile(c.snapPath(s))
	if err != nil {
		return false
	}
	return e.LoadSnapshot(data) == nil
}

// finish persists the cell's final report and retires its snapshot.
func (c *ckptState) finish(s Spec, rep metrics.Report) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := atomicWrite(c.donePath(s), data); err != nil {
		return err
	}
	os.Remove(c.snapPath(s))
	return nil
}

// runCheckpointed drives the engine to completion, persisting a snapshot
// every c.every dispatched events. Interval boundaries are absolute multiples
// of the interval, so a resumed cell checkpoints at the same instants the
// uninterrupted one would have. A scheduler that cannot snapshot (no
// SnapshotMechanism) downgrades the cell to an ordinary uncheckpointed run
// after the first attempt; I/O failures abort the cell — a checkpoint the
// operator asked for that cannot be written should be loud.
func runCheckpointed(e *sim.Engine, c *ckptState, s Spec) (metrics.Report, error) {
	every := c.every
	next := (e.DispatchedCount()/every + 1) * every
	disabled := false
	for {
		more, err := e.Step()
		if err != nil {
			return metrics.Report{}, err
		}
		if !more {
			break
		}
		if !disabled && e.DispatchedCount() >= next {
			blob, err := e.Snapshot()
			if err != nil {
				disabled = true
				continue
			}
			if err := atomicWrite(c.snapPath(s), blob); err != nil {
				return metrics.Report{}, fmt.Errorf("write checkpoint: %v", err)
			}
			next = (e.DispatchedCount()/every + 1) * every
		}
	}
	return e.Report(), nil
}
