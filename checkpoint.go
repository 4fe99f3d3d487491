package hybridsched

import (
	"errors"
	"fmt"
	"io"

	"hybridsched/internal/runner"
	"hybridsched/internal/snapshot"
)

// SessionSnapshotVersion is the format version of Session.Checkpoint frames.
// It covers the session envelope (construction recipe + engine blob); the
// embedded engine frame carries its own version.
const SessionSnapshotVersion uint32 = 1

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
	if s.recipe.Scheduler != nil {
		return errors.New("hybridsched: sessions built with WithScheduler cannot be checkpointed; register the scheduler by name and use WithMechanism")
	}
	if !s.sourcesDrained() {
		return errors.New("hybridsched: checkpoint with undrained sources: records they have not yielded yet would be lost on restore")
	}
	blob, err := s.eng.Snapshot()
	if err != nil {
		return err
	}
	return snapshot.Write(w, SessionSnapshotVersion, s.recipe.EncodeSession(blob))
}

// Restore rebuilds a session from a Checkpoint frame and resumes it at the
// captured instant. The frame's construction recipe — system size,
// mechanism, policy, checkpointing and fault parameters — is built the way
// NewSession builds one, so registered scheduler and policy names resolve
// exactly as they did originally (a frame naming a scheduler this process
// has not registered fails). The recipe is complete, so no default is
// filled in again. Extra options apply on top and are meant for
// run-orthogonal attachments (observers, event channels, source lookahead);
// options that contradict the captured configuration — a different node
// count, mechanism, or policy — are rejected when the engine state is
// re-linked.
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
	rec, blob, err := runner.DecodeSession(payload)
	if err != nil {
		return nil, fmt.Errorf("hybridsched: %w", err)
	}
	c := sessionConfig{recipe: rec}
	for _, opt := range opts {
		opt(&c)
	}
	s, err := c.session()
	if err != nil {
		return nil, fmt.Errorf("hybridsched: restore: %w", err)
	}
	if err := s.eng.LoadSnapshot(blob); err != nil {
		s.Close()
		return nil, fmt.Errorf("hybridsched: restore: %w", err)
	}
	return s, nil
}
