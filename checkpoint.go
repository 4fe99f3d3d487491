package hybridsched

import (
	"errors"
	"fmt"
	"io"

	"hybridsched/internal/snapshot"
)

// SessionSnapshotVersion is the format version of Session.Checkpoint frames.
// It covers the session envelope (construction recipe + engine blob); the
// embedded engine frame carries its own version.
const SessionSnapshotVersion uint32 = 1

// maxRestoreNodes bounds the system size Restore accepts before building an
// engine: a corrupted or hostile header must not be able to demand a
// multi-terabyte cluster allocation. The largest real machines are four
// orders of magnitude below this.
const maxRestoreNodes = 1 << 24

// Checkpoint serializes the complete session state — configuration recipe,
// every job with its execution state, the cluster partition including failed
// and drained nodes, pending events with their tie-breaking sequence numbers
// (injected failures included, each with its drawn victim and repair time),
// metrics accumulators, and the scheduler's private state — as one
// versioned, CRC-checked frame.
// A session restored from the frame with Restore continues the run
// byte-identically: its final Report matches the uninterrupted run's exactly
// (up to the wall-clock decision-latency fields, which measure host time).
//
// Checkpoint never disturbs the run; it can be interleaved with Step/RunUntil
// freely. It fails — writing nothing — for sessions that cannot be rebuilt
// from a frame:
//
//   - sessions built with WithScheduler (register the scheduler by name and
//     select it with WithMechanism instead);
//   - schedulers that do not implement the engine's snapshot extension;
//   - sessions whose attached Sources still hold undrawn records (the engine
//     cannot capture jobs it has not seen; drain the sources first or submit
//     records directly).
func (s *Session) Checkpoint(w io.Writer) error {
	if s.ckpt == nil {
		return errors.New("hybridsched: sessions built with WithScheduler cannot be checkpointed; register the scheduler by name and use WithMechanism")
	}
	if !s.sourcesDrained() {
		return errors.New("hybridsched: checkpoint with undrained sources: records they have not yielded yet would be lost on restore")
	}
	blob, err := s.eng.Snapshot()
	if err != nil {
		return err
	}
	cfg := s.ckpt.cfg
	var enc snapshot.Enc
	enc.Int(cfg.Nodes)
	enc.String(cfg.Mechanism)
	enc.String(cfg.Policy)
	enc.F64(cfg.MTBF)
	enc.F64(cfg.CheckpointFreqMult)
	enc.Bool(cfg.BackfillReserved)
	enc.Bool(cfg.NoDirectedReturn)
	enc.I64(cfg.ReleaseThresholdSeconds)
	enc.Bool(cfg.Validate)
	enc.I64(s.ckpt.maxSimTime)
	if fc := s.ckpt.faults; fc != nil {
		enc.Bool(true)
		enc.F64(fc.MTBF)
		enc.I64(fc.Seed)
		enc.I64(fc.Horizon)
		enc.F64(fc.MeanRepair)
	} else {
		enc.Bool(false)
	}
	enc.Blob(blob)
	return snapshot.Write(w, SessionSnapshotVersion, enc.Bytes())
}

// Restore rebuilds a session from a Checkpoint frame and resumes it at the
// captured instant. The construction recipe in the frame — system size,
// mechanism, policy, checkpointing and fault parameters — is replayed through
// the ordinary session constructor, so registered scheduler and policy names
// resolve exactly as they did originally (a frame naming a scheduler this
// process has not registered fails). Extra options apply on top and are meant
// for run-orthogonal attachments (observers, event channels, source
// lookahead); options that contradict the captured configuration — a
// different node count, mechanism, or policy — are rejected when the engine
// state is re-linked.
//
// Malformed input — truncation, bit flips, version skew, or a frame whose
// semantics do not hold together — yields an error, never a panic and never a
// half-restored session.
func Restore(r io.Reader, opts ...Option) (*Session, error) {
	payload, version, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	if version != SessionSnapshotVersion {
		return nil, fmt.Errorf("hybridsched: session snapshot version %d, this build reads %d", version, SessionSnapshotVersion)
	}
	d := snapshot.NewDec(payload)
	var cfg SimulationConfig
	cfg.Nodes = d.Int()
	cfg.Mechanism = d.String()
	cfg.Policy = d.String()
	cfg.MTBF = d.F64()
	cfg.CheckpointFreqMult = d.F64()
	cfg.BackfillReserved = d.Bool()
	cfg.NoDirectedReturn = d.Bool()
	cfg.ReleaseThresholdSeconds = d.I64()
	cfg.Validate = d.Bool()
	maxSimTime := d.I64()
	var fc *FaultConfig
	if d.Bool() {
		fc = &FaultConfig{MTBF: d.F64(), Seed: d.I64(), Horizon: d.I64(), MeanRepair: d.F64()}
	}
	blob := d.Blob()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if cfg.Nodes < 1 || cfg.Nodes > maxRestoreNodes {
		return nil, fmt.Errorf("hybridsched: snapshot names an implausible system size %d", cfg.Nodes)
	}
	if cfg.CheckpointFreqMult == 0 {
		// The recipe stores the resolved multiplier, where 0 means defensive
		// checkpointing explicitly off; re-express it as the constructor's
		// explicit-zero sentinel so withDefaults does not turn it into 1.0.
		cfg.CheckpointFreqMult = -1
	}
	base := []Option{WithConfig(cfg), WithMaxSimTime(maxSimTime)}
	if fc != nil {
		base = append(base, WithFaults(*fc))
	}
	s, err := NewSession(append(base, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("hybridsched: restore: %w", err)
	}
	if err := s.eng.LoadSnapshot(blob); err != nil {
		s.Close()
		return nil, fmt.Errorf("hybridsched: restore: %w", err)
	}
	return s, nil
}
