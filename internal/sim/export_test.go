package sim

// PendingPass reports the pending scheduler pass's sequence number, for the
// external tests that locate the pass in a frame.
func (e *Engine) PendingPass() (seq uint64, ok bool) { return e.schedSeq, e.schedPending }
