package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hybridsched"
	"hybridsched/internal/job"
)

// maxBodyBytes bounds every JSON request body.
const maxBodyBytes = 4 << 20

// --- Wire types -----------------------------------------------------------

// wireJob is the JSON form of one job submission. Field names and semantics
// mirror hybridsched.Record; min_size defaults to size, estimate to work,
// and notice_time/est_arrival to submit, so the common case is the five
// fields id/class/submit/size/work.
type wireJob struct {
	ID         int    `json:"id"`
	Project    int    `json:"project,omitempty"`
	Class      string `json:"class"`
	Submit     int64  `json:"submit"`
	Size       int    `json:"size"`
	MinSize    int    `json:"min_size,omitempty"`
	Work       int64  `json:"work"`
	Estimate   int64  `json:"estimate,omitempty"`
	Setup      int64  `json:"setup,omitempty"`
	Notice     string `json:"notice,omitempty"`
	NoticeTime int64  `json:"notice_time,omitempty"`
	EstArrival int64  `json:"est_arrival,omitempty"`
}

// record converts the wire form to a validated-on-submit Record.
func (j wireJob) record() (hybridsched.Record, error) {
	class, ok := job.ParseClass(j.Class)
	if !ok {
		return hybridsched.Record{}, fmt.Errorf("job %d: unknown class %q (want rigid, on-demand, or malleable)", j.ID, j.Class)
	}
	notice := job.NoNotice
	if j.Notice != "" {
		if notice, ok = job.ParseNotice(j.Notice); !ok {
			return hybridsched.Record{}, fmt.Errorf("job %d: unknown notice %q", j.ID, j.Notice)
		}
	}
	r := hybridsched.Record{
		ID: j.ID, Project: j.Project, Class: class,
		Submit: j.Submit, Size: j.Size, MinSize: j.MinSize,
		Work: j.Work, Estimate: j.Estimate, Setup: j.Setup,
		Notice: notice, NoticeTime: j.NoticeTime, EstArrival: j.EstArrival,
	}
	if r.MinSize == 0 {
		r.MinSize = r.Size
	}
	if r.Estimate == 0 {
		r.Estimate = r.Work
	}
	if r.NoticeTime == 0 {
		r.NoticeTime = r.Submit
	}
	if r.EstArrival == 0 {
		r.EstArrival = r.Submit
	}
	return r, nil
}

// wireEvent is the JSON form of one scheduling event on the SSE stream.
type wireEvent struct {
	Type  string `json:"type"`
	Time  int64  `json:"time"`
	Job   int    `json:"job"`
	Class string `json:"class,omitempty"`
	Nodes int    `json:"nodes"`
}

func toWireEvent(ev hybridsched.Event) wireEvent {
	w := wireEvent{Type: ev.Type.String(), Time: ev.Time, Job: ev.Job, Nodes: ev.Nodes}
	if ev.Job >= 0 {
		w.Class = ev.Class.String()
	}
	return w
}

// sessionInfo is the JSON description of one hosted session.
type sessionInfo struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Mechanism string `json:"mechanism,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Nodes     int    `json:"nodes"`
	Now       int64  `json:"now"`
	Submitted int    `json:"submitted"`
	Completed int    `json:"completed"`
	Queued    int    `json:"queue_depth"`
	Dropped   int    `json:"dropped_events"`
}

// createRequest is the JSON body of POST /v1/sessions.
type createRequest struct {
	Tenant     string `json:"tenant"`
	ID         string `json:"id,omitempty"`
	Mechanism  string `json:"mechanism,omitempty"`
	Policy     string `json:"policy,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	MaxSimTime int64  `json:"max_sim_time,omitempty"`
	// Source is a hybridsched source spec (ParseSource grammar). It is
	// materialized and submitted up front — not attached lazily — so the
	// session stays checkpointable (Checkpoint rejects undrained sources).
	Source string `json:"source,omitempty"`
}

// advanceRequest is the JSON body of POST /v1/sessions/{id}/advance.
// Exactly one of until/hours/steps selects the mode: advance to an absolute
// virtual time, advance by whole hours from the current clock, or process a
// bounded number of discrete events.
type advanceRequest struct {
	Until int64 `json:"until,omitempty"`
	Hours int64 `json:"hours,omitempty"`
	Steps int   `json:"steps,omitempty"`
}

// advanceResponse reports where the advance landed.
type advanceResponse struct {
	Now       int64 `json:"now"`
	Submitted int   `json:"submitted"`
	Completed int   `json:"completed"`
	Queued    int   `json:"queue_depth"`
	Steps     int   `json:"steps,omitempty"` // events processed (steps mode)
}

// --- Handler --------------------------------------------------------------

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sessions                   create a session
//	GET    /v1/sessions[?tenant=]         list sessions
//	GET    /v1/sessions/{id}              one session's info
//	DELETE /v1/sessions/{id}              stop and remove a session
//	POST   /v1/sessions/{id}/jobs         submit a job (or array of jobs)
//	POST   /v1/sessions/{id}/advance      advance virtual time / step events
//	GET    /v1/sessions/{id}/snapshot     point-in-time state
//	GET    /v1/sessions/{id}/report       metrics report so far
//	POST   /v1/sessions/{id}/checkpoint   persist to the state dir now
//	GET    /v1/sessions/{id}/events       SSE stream of scheduling events
//	GET    /metrics                       Prometheus text metrics
//	GET    /healthz                       liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/jobs", s.handleJobs)
	mux.HandleFunc("POST /v1/sessions/{id}/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.handleReport)
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// instrument wraps the mux with request metrics (latency histogram and
// per-status-code counters).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.met.requestSeconds.Observe(time.Since(start).Seconds())
		s.met.httpRequests.Inc(strconv.Itoa(rec.code))
	})
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE works through the
// instrumentation layer.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError maps an error to its HTTP status. Quota violations and full
// mailboxes are 429 with a Retry-After hint — the backpressure contract.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case isQuotaError(err) || err == errMailboxFull:
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case err == errSessionClosed || err == errSessionDeleted:
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody decodes a size-capped JSON request body into v (see decodeOne).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeOne(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)), v)
}

// decodeOne decodes the one JSON value dec holds into v. Unknown fields are
// refused (a misspelled field would otherwise read as its zero value), and
// so is any data after the value but white space.
func decodeOne(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	a, err := s.createSession(req)
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.infoOf(a)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// infoOf collects a session's live description through its actor.
func (s *Server) infoOf(a *actor) (sessionInfo, error) {
	info := sessionInfo{ID: a.spec.ID, Tenant: a.spec.Tenant}
	err := a.do(func(sess *hybridsched.Session) error {
		info.Mechanism, info.Policy = sess.Names()
		snap := sess.Snapshot()
		info.Nodes = snap.Nodes
		info.Now = snap.Now
		info.Submitted = snap.Submitted
		info.Completed = snap.Completed
		info.Queued = snap.QueueDepth
		info.Dropped = sess.DroppedEvents()
		return nil
	})
	return info, err
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var infos []sessionInfo
	for _, a := range s.list(r.URL.Query().Get("tenant")) {
		info, err := s.infoOf(a)
		if err != nil {
			continue // deleted while listing
		}
		infos = append(infos, info)
	}
	if infos == nil {
		infos = []sessionInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

// sessionOr404 resolves the {id} path segment to an actor.
func (s *Server) sessionOr404(w http.ResponseWriter, r *http.Request) (*actor, bool) {
	id := r.PathValue("id")
	a, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no session %q", id)})
	}
	return a, ok
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	info, err := s.infoOf(a)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.deleteSession(id) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no session %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	// Accept one job object or an array of them, as strictly as decodeBody
	// (a misspelled "sumbit" would otherwise submit the job at t=0).
	dec := json.NewDecoder(bytes.NewReader(body))
	var jobs []wireJob
	if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 && trimmed[0] == '[' {
		err = decodeOne(dec, &jobs)
	} else {
		jobs = make([]wireJob, 1)
		err = decodeOne(dec, &jobs[0])
	}
	if err != nil {
		writeError(w, fmt.Errorf("bad job body: %w", err))
		return
	}
	records := make([]hybridsched.Record, len(jobs))
	for i, wj := range jobs {
		if records[i], err = wj.record(); err != nil {
			writeError(w, err)
			return
		}
	}
	// One quota slot and one mailbox request per submission call: the whole
	// batch is applied atomically in submission order by the actor.
	if err := s.ledger.addQueued(a.spec.Tenant); err != nil {
		s.met.quotaDenials.Inc()
		writeError(w, err)
		return
	}
	err = a.doSubmit(func(sess *hybridsched.Session) error {
		for _, rec := range records {
			if err := sess.Submit(rec); err != nil {
				return err
			}
		}
		return nil
	}, func() { s.ledger.dropQueued(a.spec.Tenant) })
	if err != nil {
		if err == errMailboxFull {
			s.met.backpressure429.Inc()
		}
		writeError(w, err)
		return
	}
	s.met.jobsSubmitted.Add(int64(len(records)))
	writeJSON(w, http.StatusAccepted, map[string]int{"submitted": len(records)})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	var req advanceRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	modes := 0
	for _, set := range []bool{req.Until > 0, req.Hours > 0, req.Steps > 0} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		writeError(w, fmt.Errorf("advance wants exactly one of until, hours, steps"))
		return
	}
	var resp advanceResponse
	err := a.do(func(sess *hybridsched.Session) error {
		var err error
		switch {
		case req.Steps > 0:
			resp.Steps, err = a.stepN(sess, req.Steps)
		case req.Hours > 0:
			err = a.advance(sess, sess.Now()+req.Hours*hybridsched.Hour)
		default:
			err = a.advance(sess, req.Until)
		}
		snap := sess.Snapshot()
		resp.Now, resp.Submitted, resp.Completed, resp.Queued =
			snap.Now, snap.Submitted, snap.Completed, snap.QueueDepth
		return err
	})
	if err != nil {
		if err == errMailboxFull {
			s.met.backpressure429.Inc()
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	var snap hybridsched.Snapshot
	if err := a.do(func(sess *hybridsched.Session) error {
		snap = sess.Snapshot()
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	var rep hybridsched.Report
	if err := a.do(func(sess *hybridsched.Session) error {
		rep = sess.Report()
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	if a.persistPath == "" {
		writeError(w, fmt.Errorf("no state dir configured (start schedd with -state-dir)"))
		return
	}
	if err := a.do(func(*hybridsched.Session) error { return a.checkpointTo(a.persistPath) }); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"checkpointed": a.spec.ID})
}

// sseDropCheckEvery is how many events stream between polls of the
// channel's drop count.
const sseDropCheckEvery = 64

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	a, ok := s.sessionOr404(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	// Subscribing mutates the session (installs the engine sink), so it goes
	// through the actor; the returned channel, its drop count and
	// CloseEvents are safe to use from this handler goroutine afterwards.
	// Each client is told only of the events dropped from its own channel.
	var ch <-chan hybridsched.Event
	var dropped func() int
	var detach func(<-chan hybridsched.Event)
	if err := a.do(func(sess *hybridsched.Session) error {
		ch = sess.Events()
		dropped = func() int { return sess.DroppedEventsOf(ch) }
		detach = sess.CloseEvents
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	// A departed client detaches its channel, so the session-wide count
	// stops counting drops no consumer suffers.
	defer detach(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	emit("hello", map[string]string{"session": a.spec.ID, "tenant": a.spec.Tenant})

	lastDrops := dropped()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	streamed := 0
	for {
		select {
		case ev, open := <-ch:
			if !open {
				emit("eof", map[string]int{"dropped": dropped()})
				return
			}
			emit("sched", toWireEvent(ev))
			streamed++
			if streamed%sseDropCheckEvery == 0 {
				if d := dropped(); d != lastDrops {
					lastDrops = d
					emit("dropped", map[string]int{"dropped": d})
				}
			}
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
			if d := dropped(); d != lastDrops {
				lastDrops = d
				emit("dropped", map[string]int{"dropped": d})
			}
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			emit("eof", map[string]int{"dropped": dropped()})
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writePrometheus(w, s.ledger)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, draining := len(s.sessions), s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "sessions": n})
}
