package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hybridsched"
)

// Sentinel errors of the actor lifecycle. The API layer maps them to HTTP
// statuses: errMailboxFull -> 429, errSessionClosed/errSessionDeleted -> 409
// on in-flight work (the session id itself 404s once removed from the table).
var (
	errMailboxFull    = errors.New("session mailbox full")
	errSessionClosed  = errors.New("session closed")
	errSessionDeleted = errors.New("session deleted")
)

// advanceChunk is how much virtual time one uninterruptible RunUntil slice
// covers. Between slices the actor polls its stop signal, so a DELETE (or a
// daemon drain) lands within one chunk of virtual time, not after a
// multi-week advance completes.
const advanceChunk = 6 * hybridsched.Hour

// stepCheckInterval is how many Step calls run between stop-signal polls.
const stepCheckInterval = 256

// request is one unit of work executed on the actor goroutine. fn runs with
// exclusive access to the session; its error is delivered on errc (buffered,
// so a departed waiter never blocks the actor).
type request struct {
	fn      func(s *hybridsched.Session) error
	errc    chan error
	release func() // queued-submission quota release; nil for non-submits
}

// sessionSpec is who owns a hosted session, persisted beside its checkpoint
// because the file name tenant--id is ambiguous when names contain "-". The
// rest of a session's description comes from the session itself.
type sessionSpec struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
}

// actor owns one hybridsched.Session. The Session API is explicitly not
// safe for concurrent use, so the actor serializes all access: a single
// goroutine (loop) owns the session for its whole life, and every HTTP
// handler interacts with it only by enqueueing requests into a bounded
// mailbox. A full mailbox is backpressure, reported to the caller
// immediately instead of queueing unboundedly.
type actor struct {
	spec sessionSpec
	sess *hybridsched.Session // owned by loop; handlers must not touch it

	mailbox chan request
	stop    chan struct{} // closed by close(); loop winds down
	exited  chan struct{} // closed when loop has returned
	once    sync.Once

	// deleted marks a DELETE-initiated stop: the persisted checkpoint (if
	// any) is removed instead of (re)written.
	deleted atomic.Bool
	// persistPath, when non-empty, is where the actor checkpoints its
	// session during a graceful stop.
	persistPath string

	// lastDrops is the session drop count already mirrored into the server
	// metrics (actor goroutine only).
	lastDrops int

	// vnow is the session's virtual clock as last published by the actor —
	// after every request and between advance chunks — so progress is
	// observable without a mailbox round-trip while a long advance holds
	// the actor.
	vnow atomic.Int64

	met *metrics
}

// newActor wraps sess in a freshly started actor.
func newActor(spec sessionSpec, sess *hybridsched.Session, mailboxDepth int, persistPath string, met *metrics) *actor {
	a := &actor{
		spec:        spec,
		sess:        sess,
		mailbox:     make(chan request, mailboxDepth),
		stop:        make(chan struct{}),
		exited:      make(chan struct{}),
		persistPath: persistPath,
		met:         met,
	}
	go a.loop()
	return a
}

// loop is the actor goroutine: it alone touches a.sess until it returns.
func (a *actor) loop() {
	defer close(a.exited)
	for {
		select {
		case <-a.stop:
			a.windDown()
			return
		case req := <-a.mailbox:
			a.run(req)
		}
	}
}

// run executes one request and replies.
func (a *actor) run(req request) {
	err := req.fn(a.sess)
	a.vnow.Store(a.sess.Now())
	a.syncDrops()
	if req.release != nil {
		req.release()
	}
	req.errc <- err
}

// syncDrops mirrors the session's event-drop counter into the server
// metrics as a delta (the session counter is cumulative and never resets).
func (a *actor) syncDrops() {
	if d := a.sess.DroppedEvents(); d > a.lastDrops {
		a.met.eventsDropped.Add(int64(d - a.lastDrops))
		a.lastDrops = d
	}
}

// windDown runs on the actor goroutine after stop: persist (or discard) the
// checkpoint, close the session, and fail every request still queued.
func (a *actor) windDown() {
	if a.persistPath != "" {
		if a.deleted.Load() {
			os.Remove(a.persistPath)
			os.Remove(metaPath(a.persistPath))
		} else if err := a.checkpointTo(a.persistPath); err != nil {
			// A session that cannot be checkpointed (e.g. an extender whose
			// remote is gone) is lost on restart, not fatal now.
			fmt.Fprintf(os.Stderr, "schedd: checkpoint %s/%s: %v\n", a.spec.Tenant, a.spec.ID, err)
		}
	}
	a.sess.Close()
	for {
		select {
		case req := <-a.mailbox:
			if req.release != nil {
				req.release()
			}
			req.errc <- errSessionClosed
		default:
			return
		}
	}
}

// close initiates shutdown (idempotent) and waits for the loop to exit. An
// in-flight chunked advance notices within one chunk.
func (a *actor) close() {
	a.once.Do(func() { close(a.stop) })
	<-a.exited
}

// do enqueues fn without blocking and waits for it to complete. A full
// mailbox fails immediately with errMailboxFull; an actor that stops before
// replying fails with errSessionClosed.
func (a *actor) do(fn func(s *hybridsched.Session) error) error {
	return a.enqueue(request{fn: fn, errc: make(chan error, 1)})
}

// doSubmit is do for job submissions, holding one queued-submission quota
// slot from acceptance until the actor has applied (or abandoned) it.
func (a *actor) doSubmit(fn func(s *hybridsched.Session) error, release func()) error {
	return a.enqueue(request{fn: fn, errc: make(chan error, 1), release: release})
}

func (a *actor) enqueue(req request) error {
	select {
	case <-a.stop:
		if req.release != nil {
			req.release()
		}
		return errSessionClosed
	default:
	}
	select {
	case a.mailbox <- req:
	default:
		if req.release != nil {
			req.release()
		}
		return errMailboxFull
	}
	select {
	case err := <-req.errc:
		return err
	case <-a.exited:
		// The actor may have replied in the same instant it exited.
		select {
		case err := <-req.errc:
			return err
		default:
			return errSessionClosed
		}
	}
}

// stopped reports whether shutdown has been requested (callable from fn
// bodies running on the actor goroutine).
func (a *actor) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

// advance moves the session's virtual clock to until, in chunks so a delete
// or daemon drain interrupts within advanceChunk of virtual time.
func (a *actor) advance(s *hybridsched.Session, until int64) error {
	if until < s.Now() {
		return fmt.Errorf("cannot advance to t=%d: clock already at %d", until, s.Now())
	}
	for {
		next := s.Now() + advanceChunk
		if next > until {
			next = until
		}
		if err := s.RunUntil(next); err != nil {
			return err
		}
		a.vnow.Store(s.Now())
		if next == until {
			return nil
		}
		if a.stopped() {
			return errSessionDeleted
		}
	}
}

// stepN processes up to n events, polling the stop signal periodically.
// It returns how many events were actually processed (the session may
// drain first).
func (a *actor) stepN(s *hybridsched.Session, n int) (int, error) {
	done := 0
	for done < n {
		if done%stepCheckInterval == stepCheckInterval-1 && a.stopped() {
			return done, errSessionDeleted
		}
		more, err := s.Step()
		if err != nil {
			return done, err
		}
		if !more {
			break
		}
		done++
	}
	return done, nil
}

// checkpointTo writes the session's checkpoint frame to path atomically
// (tmp + rename), plus the spec sidecar the restore path lists sessions
// from. Runs on the actor goroutine.
func (a *actor) checkpointTo(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := a.sess.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return writeMeta(metaPath(path), a.spec)
}

// metaPath is the spec sidecar for a checkpoint file.
func metaPath(snapPath string) string {
	return snapPath[:len(snapPath)-len(filepath.Ext(snapPath))] + ".meta.json"
}
