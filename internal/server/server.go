// Package server implements schedd, the scheduling-as-a-service daemon: a
// long-lived HTTP server hosting many concurrent simulation sessions, one
// per tenant experiment.
//
// The concurrency model is an actor per session. A hybridsched.Session is
// explicitly not safe for concurrent use, so each hosted session is owned by
// one dedicated goroutine; HTTP handlers communicate with it exclusively
// through a bounded mailbox of requests. A full mailbox — or an exhausted
// tenant quota — is reported to the client immediately as HTTP 429, the
// daemon's explicit backpressure contract. Event streams ride the session's
// Events channels (safe to drain from any goroutine) out to SSE clients,
// with the DroppedEvents overflow counter surfaced in-stream.
//
// With a state directory configured, a graceful shutdown checkpoints every
// hosted session via Session.Checkpoint, and the next daemon start restores
// them via hybridsched.Restore — a killed daemon resumes its tenants'
// simulations byte-identically.
package server

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"hybridsched"
)

// Config parameterizes a Server.
type Config struct {
	// Quotas bounds tenant and daemon resource consumption (zero fields
	// take defaults; see Quotas).
	Quotas Quotas
	// StateDir, when non-empty, is where sessions are checkpointed on
	// graceful shutdown and restored from at startup. Created if missing.
	StateDir string
	// Logger receives operational messages (default: log.Default()).
	Logger *log.Logger
}

// Server hosts simulation sessions behind the HTTP API. Create with New;
// serve Handler(); stop with Drain (checkpointing) or Close (discarding).
type Server struct {
	cfg    Config
	ledger *tenantLedger
	met    *metrics
	log    *log.Logger

	mu       sync.Mutex
	sessions map[string]*actor
	nextID   int
	draining bool

	// drainCh is closed when a drain begins, so long-lived handlers (SSE)
	// unblock and let the HTTP server's graceful shutdown complete.
	drainCh chan struct{}
}

// nameRE constrains tenant and session names: they appear in URLs, metric
// labels, and state-dir filenames, so only filename-safe tokens are allowed.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// New builds a Server and, if cfg.StateDir is set, restores every session
// checkpointed there by a previous run.
func New(cfg Config) (*Server, error) {
	cfg.Quotas = cfg.Quotas.withDefaults()
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	s := &Server{
		cfg:      cfg,
		ledger:   newTenantLedger(cfg.Quotas),
		met:      newMetrics(),
		log:      cfg.Logger,
		sessions: map[string]*actor{},
		drainCh:  make(chan struct{}),
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// createSession builds, registers, and starts an actor for a new session.
func (s *Server) createSession(req createRequest) (*actor, error) {
	if !nameRE.MatchString(req.Tenant) {
		return nil, fmt.Errorf("invalid tenant %q (want %s)", req.Tenant, nameRE)
	}
	if req.ID != "" && !nameRE.MatchString(req.ID) {
		return nil, fmt.Errorf("invalid session id %q (want %s)", req.ID, nameRE)
	}

	var records []hybridsched.Record
	if req.Source != "" {
		src, err := hybridsched.ParseSource(req.Source)
		if err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
		if records, err = hybridsched.ReadAllSource(src); err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
	}

	if err := s.ledger.addSession(req.Tenant); err != nil {
		s.met.quotaDenials.Inc()
		return nil, err
	}
	undo := func() { s.ledger.dropSession(req.Tenant) }

	sess, err := hybridsched.NewSession(
		hybridsched.WithMechanism(req.Mechanism),
		hybridsched.WithPolicy(req.Policy),
		hybridsched.WithNodes(req.Nodes),
		hybridsched.WithMaxSimTime(req.MaxSimTime),
		hybridsched.WithObserver(s.eventCounter()),
	)
	if err != nil {
		undo()
		return nil, err
	}
	for _, r := range records {
		if err := sess.Submit(r); err != nil {
			sess.Close()
			undo()
			return nil, fmt.Errorf("source record %d: %w", r.ID, err)
		}
	}
	s.met.jobsSubmitted.Add(int64(len(records)))
	mech, pol := sess.Names() // read now: once the actor starts, only it touches sess

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.Close()
		undo()
		return nil, errSessionClosed
	}
	id := req.ID
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("s%d", s.nextID)
	}
	if _, dup := s.sessions[id]; dup {
		s.mu.Unlock()
		sess.Close()
		undo()
		return nil, fmt.Errorf("session %q already exists", id)
	}
	a := newActor(sessionSpec{Tenant: req.Tenant, ID: id}, sess, s.cfg.Quotas.MailboxDepth, s.snapPath(req.Tenant, id), s.met)
	s.sessions[id] = a
	s.mu.Unlock()

	s.met.sessionsCreated.Inc()
	s.met.sessionsLive.Add(1)
	s.log.Printf("schedd: session %s created (tenant=%s mechanism=%s policy=%s, %d source records)",
		id, req.Tenant, mech, pol, len(records))
	return a, nil
}

// eventCounter is the observer attached to every hosted session, feeding
// the daemon-wide event and completion counters. It runs on the actor
// goroutine; the counters are atomic.
func (s *Server) eventCounter() hybridsched.Observer {
	return hybridsched.ObserverFunc(func(ev hybridsched.Event) {
		s.met.eventsEmitted.Inc()
		if ev.Type == hybridsched.EventEnd {
			s.met.jobsCompleted.Inc()
		}
	})
}

// lookup finds a hosted session by id.
func (s *Server) lookup(id string) (*actor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.sessions[id]
	return a, ok
}

// list returns the hosted actors, sorted by id, optionally filtered by
// tenant.
func (s *Server) list(tenant string) []*actor {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*actor
	for _, a := range s.sessions {
		if tenant == "" || a.spec.Tenant == tenant {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID < out[j].spec.ID })
	return out
}

// deleteSession removes the session from the table immediately (a second
// DELETE 404s) and stops its actor, interrupting an in-flight advance
// within one chunk. The persisted checkpoint, if any, is removed.
func (s *Server) deleteSession(id string) bool {
	s.mu.Lock()
	a, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	a.deleted.Store(true)
	a.close()
	s.ledger.dropSession(a.spec.Tenant)
	s.met.sessionsDeleted.Inc()
	s.met.sessionsLive.Add(-1)
	s.log.Printf("schedd: session %s deleted (tenant=%s)", id, a.spec.Tenant)
	return true
}

// Drain gracefully stops the server: new work is refused, long-lived
// handlers are unblocked, and every hosted session is stopped — with a
// state dir configured, each actor checkpoints its session on the way out.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.drainCh)
	actors := make([]*actor, 0, len(s.sessions))
	//schedlint:orderfree actors are closed concurrently below; shutdown order is unobservable
	for _, a := range s.sessions {
		actors = append(actors, a)
	}
	s.sessions = map[string]*actor{}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, a := range actors {
		wg.Add(1)
		go func(a *actor) {
			defer wg.Done()
			a.close()
			s.ledger.dropSession(a.spec.Tenant)
			s.met.sessionsLive.Add(-1)
		}(a)
	}
	wg.Wait()
	s.log.Printf("schedd: drained %d sessions", len(actors))
}

// Close stops the server without checkpointing (persist paths are left as
// they were). Meant for tests; production shutdown goes through Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	actors := make([]*actor, 0, len(s.sessions))
	//schedlint:orderfree teardown without checkpoints; close order is unobservable
	for _, a := range s.sessions {
		a.persistPath = "" // no checkpoint on the way out
		actors = append(actors, a)
	}
	s.sessions = map[string]*actor{}
	s.mu.Unlock()
	for _, a := range actors {
		a.close()
		s.ledger.dropSession(a.spec.Tenant)
		s.met.sessionsLive.Add(-1)
	}
}

// snapPath is the checkpoint file for a session ("" without a state dir).
func (s *Server) snapPath(tenant, id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, tenant+"--"+id+".snap")
}

// restoreAll rebuilds every session checkpointed in the state dir.
// Unreadable frames are logged and skipped: one corrupt file must not keep
// the daemon (and every other tenant's session) down.
func (s *Server) restoreAll() error {
	snaps, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "*.snap"))
	if err != nil {
		return err
	}
	sort.Strings(snaps)
	for _, path := range snaps {
		spec, err := readMeta(metaPath(path))
		if err != nil {
			// Fall back to the filename convention tenant--id.snap.
			base := strings.TrimSuffix(filepath.Base(path), ".snap")
			tenant, id, ok := strings.Cut(base, "--")
			if !ok {
				s.log.Printf("schedd: skip %s: %v (and filename is not tenant--id.snap)", path, err)
				continue
			}
			spec = sessionSpec{Tenant: tenant, ID: id}
		}
		if err := s.restoreOne(path, spec); err != nil {
			s.log.Printf("schedd: skip %s: %v", path, err)
		}
	}
	return nil
}

// restoreOne restores a single checkpoint into a fresh actor.
func (s *Server) restoreOne(path string, spec sessionSpec) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sess, err := hybridsched.Restore(f, hybridsched.WithObserver(s.eventCounter()))
	if err != nil {
		return err
	}
	if err := s.ledger.addSession(spec.Tenant); err != nil {
		sess.Close()
		return err
	}
	s.mu.Lock()
	if _, dup := s.sessions[spec.ID]; dup {
		s.mu.Unlock()
		sess.Close()
		s.ledger.dropSession(spec.Tenant)
		return fmt.Errorf("duplicate session id %q in state dir", spec.ID)
	}
	a := newActor(spec, sess, s.cfg.Quotas.MailboxDepth, path, s.met)
	s.sessions[spec.ID] = a
	s.mu.Unlock()
	s.met.sessionsRestored.Inc()
	s.met.sessionsLive.Add(1)
	s.log.Printf("schedd: session %s restored (tenant=%s, t=%d)", spec.ID, spec.Tenant, sess.Now())
	return nil
}

// writeMeta persists a session's spec sidecar atomically.
func writeMeta(path string, spec sessionSpec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readMeta loads a session's spec sidecar.
func readMeta(path string) (sessionSpec, error) {
	var spec sessionSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, err
	}
	if !nameRE.MatchString(spec.Tenant) || !nameRE.MatchString(spec.ID) {
		return spec, fmt.Errorf("meta %s: invalid tenant/id", path)
	}
	return spec, nil
}
