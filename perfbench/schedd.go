package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hybridsched"
	"hybridsched/internal/server"
	"hybridsched/internal/simtest"
)

// schedd online: an in-process daemon on a loopback listener, with a state
// dir, hosting one CUA&SPAA session per tenant. Each tenant is a sequential
// client on its own connection following a seeded open-loop schedule.
const (
	scheddTenants = 2
	scheddNodes   = 4392
	scheddRate    = 1000.0 // scheduled requests per second per tenant
	scheddSetups  = 31     // daemon starts (with session creation) before the episodes
	// scheddEpisode is the traffic of one episode. Every episode starts a
	// fresh daemon with fresh sessions and sends the same schedules, so the
	// episodes of a run are identical work.
	scheddEpisode = 2 * time.Second
	advanceHours  = 1
	drainHours    = 4 * 7 * 24
	// advanceChunk mirrors the daemon's uninterruptible RunUntil slice, so
	// the in-process replay makes the same calls the session actor makes.
	advanceChunk = 6 * hybridsched.Hour
)

// opKind is one kind of scheduled request.
type opKind int

const (
	opSubmit opKind = iota
	opAdvance
	opSnapshot
	opReport
	opMetrics
)

func (k opKind) class() string {
	switch k {
	case opSubmit:
		return "submit"
	case opAdvance:
		return "advance"
	}
	return "read"
}

// wireJob is the schedd job body (the common five fields).
type wireJob struct {
	ID     int    `json:"id"`
	Class  string `json:"class"`
	Submit int64  `json:"submit"`
	Size   int    `json:"size"`
	Work   int64  `json:"work"`
}

// scheddOp is one scheduled request: when it is due, relative to the start
// of the schedule, and what it asks.
type scheddOp struct {
	kind opKind
	due  time.Duration
	job  wireJob // opSubmit only
}

// scheddSchedule derives one tenant's requests from the seed: Poisson due
// times at scheddRate per second over the budget; ~80% single-job submits
// just past the session clock, ~10% one-hour advances, ~10% reads split over
// snapshot, report and /metrics.
func scheddSchedule(seed int64, tenant int, budget time.Duration) []scheddOp {
	g := newStreamGen(seed*31 + int64(tenant) + 1)
	unit := func() float64 { return (float64(g.intn(1<<30)) + 0.5) / (1 << 30) }
	var ops []scheddOp
	var clock int64 // the session clock once every earlier advance applied
	var due time.Duration
	id := 1_000_000
	for {
		due += time.Duration(-math.Log(unit()) / scheddRate * float64(time.Second))
		if due >= budget {
			return ops
		}
		op := scheddOp{due: due}
		switch u := g.intn(100); {
		case u < 80:
			id++
			work := int64(600 + g.intn(6600))
			op.job = wireJob{ID: id, Class: "rigid", Submit: clock + 1 + int64(g.intn(900)), Size: 1 + g.intn(256), Work: work}
		case u < 90:
			op.kind = opAdvance
			clock += advanceHours * hybridsched.Hour
		default:
			op.kind = []opKind{opSnapshot, opReport, opMetrics}[g.intn(3)]
		}
		ops = append(ops, op)
	}
}

// daemon is one running schedd: the server, its HTTP front, and the
// goroutine serving it.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	base   string
	served chan error
	dir    string
	timer  *handlerTimer // nil unless traced
}

// startDaemon starts a schedd on a loopback port with a fresh state dir and
// creates one session per tenant.
func startDaemon(cfg config, stats *serverStats) (*daemon, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.buildDir, "tmp"), "schedd-state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{StateDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, base: "http://" + ln.Addr().String(), served: make(chan error, 1), dir: dir}
	var h http.Handler = srv.Handler()
	if stats != nil {
		d.timer = &handlerTimer{next: h, stats: stats}
		h = d.timer
	}
	d.http = &http.Server{Handler: h}
	go func() { d.served <- d.http.Serve(ln) }()

	c := newClient()
	defer c.CloseIdleConnections()
	for t := 0; t < scheddTenants; t++ {
		body := fmt.Sprintf(`{"tenant":"t%d","id":"s%d","mechanism":"CUA&SPAA","nodes":%d,"source":%q}`,
			t, t, scheddNodes, scheddSource(cfg.seed, t))
		if _, err := call(c, http.MethodPost, d.base+"/v1/sessions", body, nil); err != nil {
			d.stop()
			return nil, fmt.Errorf("create session s%d: %w", t, err)
		}
	}
	return d, nil
}

// scheddSource is a tenant's one-week synthetic source spec.
func scheddSource(seed int64, tenant int) string {
	return fmt.Sprintf("synthetic:seed=%d,weeks=1,nodes=%d", 100*seed+int64(tenant)+1, scheddNodes)
}

// stop drains the daemon (checkpointing its sessions, as a SIGTERM would),
// shuts the HTTP front down, waits for the serving goroutine, and removes
// the state dir.
func (d *daemon) stop() error {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(d.dir))
}

// newClient is one tenant's HTTP client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call sends one request and decodes the response into v, or discards it
// when v is nil (without buffering it, so the client adds little garbage to
// the heap it shares with the daemon). Any status outside 2xx is an error.
func call(c *http.Client, method, url, body string, v any) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else if err = json.NewDecoder(resp.Body).Decode(v); err != nil {
		err = fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return resp.StatusCode, err
}

// tenantRun is what one tenant's client observed.
type tenantRun struct {
	lat      [3]samples    // submit, advance, read: from the due time to the response
	late     samples       // generator delay: send time minus the later of due time and previous response
	service  time.Duration // summed time from sending each request to its response
	accepted []scheddOp
	sent     int
	failed   int
	firstErr error
}

var classIndex = map[string]int{"submit": 0, "advance": 1, "read": 2}

// drive sends tenant t's schedule open-loop: each request goes out at its
// due time, or when the previous response arrives if that is later. A
// request's latency counts from its due time to its response, so it includes
// any wait for the previous response and any delay in sending: the
// generator, the clients and the daemon share one runtime, and part of that
// delay is the daemon's. The generator's own delay is also reported apart,
// as lateness.
func (d *daemon) drive(t int, ops []scheddOp, start time.Time) *tenantRun {
	r := &tenantRun{}
	c := newClient()
	defer c.CloseIdleConnections()
	session := fmt.Sprintf("%s/v1/sessions/s%d", d.base, t)
	var answeredAt time.Time // when the previous response arrived
	for _, op := range ops {
		at := start.Add(op.due)
		sleepUntil(at)
		sent := time.Now()
		r.late.add(sent.Sub(later(at, answeredAt)))
		var err error
		switch op.kind {
		case opSubmit:
			body, _ := json.Marshal(op.job)
			_, err = call(c, http.MethodPost, session+"/jobs", string(body), nil)
		case opAdvance:
			_, err = call(c, http.MethodPost, session+"/advance", fmt.Sprintf(`{"hours":%d}`, advanceHours), nil)
		case opSnapshot:
			_, err = call(c, http.MethodGet, session+"/snapshot", "", nil)
		case opReport:
			_, err = call(c, http.MethodGet, session+"/report", "", nil)
		case opMetrics:
			_, err = call(c, http.MethodGet, d.base+"/metrics", "", nil)
		}
		answeredAt = time.Now()
		r.service += answeredAt.Sub(sent)
		r.sent++
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		r.lat[classIndex[op.kind.class()]].add(answeredAt.Sub(at))
		r.accepted = append(r.accepted, op)
	}
	return r
}

// sleepUntil waits until t. The runtime's timers wake a goroutine of an
// otherwise idle process up to a millisecond late (the network poller waits
// in whole milliseconds), which would swamp sub-millisecond latencies, so
// the last two milliseconds are slept in nanosleep: it blocks only the
// calling thread and wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal cuts it short (EINTR); the loop sleeps the rest
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// sessionInfo is the part of the session description the harness reads.
type sessionInfo struct {
	Now       int64 `json:"now"`
	Submitted int   `json:"submitted"`
	Completed int   `json:"completed"`
}

// episode is what one episode observed.
type episode struct {
	runs       []*tenantRun
	completed  int           // jobs the sessions completed
	gc         gcStats       // the collector's work during the traffic
	reportTime time.Duration // Session.Report time in the check's replays
}

// latencies pools every answered request of the episode.
func (ep *episode) latencies() *samples {
	s := &samples{}
	for _, r := range ep.runs {
		for k := range r.lat {
			s.merge(&r.lat[k])
		}
	}
	return s
}

// service is the summed service time of every request of the episode.
func (ep *episode) service() time.Duration {
	var sum time.Duration
	for _, r := range ep.runs {
		sum += r.service
	}
	return sum
}

// runEpisode starts a daemon (timing it into setups), sends every tenant's
// schedule concurrently, checks the sessions and stops the daemon.
func runEpisode(cfg config, schedules [][]scheddOp, stats *serverStats, setups *samples) (*episode, error) {
	t := time.Now()
	d, err := startDaemon(cfg, stats)
	if err != nil {
		return nil, err
	}
	setups.add(time.Since(t))
	ep, err := d.traffic(schedules)
	if err == nil {
		ep.reportTime, err = d.checkSessions(cfg, ep.runs)
	}
	return ep, errors.Join(err, d.stop())
}

// traffic sends every tenant's schedule concurrently and counts the jobs the
// sessions completed.
func (d *daemon) traffic(schedules [][]scheddOp) (*episode, error) {
	ep := &episode{runs: make([]*tenantRun, len(schedules))}
	heap := startHeapMonitor()
	if d.timer != nil {
		d.timer.active.Store(true)
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for t := range schedules {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ep.runs[t] = d.drive(t, schedules[t], start)
		}(t)
	}
	wg.Wait()
	if d.timer != nil {
		d.timer.active.Store(false)
	}
	ep.gc = heap.finish()

	c := newClient()
	defer c.CloseIdleConnections()
	for t := range schedules {
		var info sessionInfo
		if _, err := call(c, http.MethodGet, fmt.Sprintf("%s/v1/sessions/s%d", d.base, t), "", &info); err != nil {
			return ep, err
		}
		ep.completed += info.Completed
	}
	return ep, nil
}

// scheddRun starts the daemon scheddSetups times, then runs episodes until
// the budget is spent. Each figure is the median over the episodes of that
// episode's figure, so the few episodes a shared host's other tenants slow
// down do not set it. The traffic is open loop, so the jobs an episode
// completes are set by its schedule; jobs_per_s divides them by the time the
// daemon took to answer, the summed service time of the episode's requests,
// so a slower daemon reads lower.
func scheddRun(cfg config, stats *serverStats) (outcome, []*episode, error) {
	out := outcome{metrics: metricSet{}}
	var setups samples
	for i := 0; i < scheddSetups; i++ {
		t := time.Now()
		d, err := startDaemon(cfg, nil)
		if err != nil {
			return out, nil, err
		}
		setups.add(time.Since(t))
		if err := d.stop(); err != nil {
			return out, nil, err
		}
	}
	schedules := make([][]scheddOp, scheddTenants)
	for t := range schedules {
		schedules[t] = scheddSchedule(cfg.seed, t, scheddEpisode)
	}
	var eps []*episode
	begin := time.Now()
	for len(eps) == 0 || time.Since(begin) < cfg.budget {
		ep, err := runEpisode(cfg, schedules, stats, &setups)
		if ep != nil {
			for t, r := range ep.runs {
				out.attempted += r.sent
				out.failed += r.failed
				if r.firstErr != nil {
					fmt.Fprintf(os.Stderr, "perfbench: episode %d tenant %d: %d failed requests, first: %v\n", len(eps), t, r.failed, r.firstErr)
				}
			}
		}
		if err != nil {
			return out, eps, fmt.Errorf("schedd episode %d: %w", len(eps), err)
		}
		eps = append(eps, ep)
	}

	var jobsPS, p50s, p99s samples
	for i, ep := range eps {
		fmt.Printf("schedd episode %d: %d jobs completed over %.1f ms of service; ", i, ep.completed, float64(ep.service())/1e6)
		em := metricSet{}
		if err := quantiles(os.Stdout, em, "latency_ms", "ms", ep.latencies()); err != nil {
			return out, eps, fmt.Errorf("schedd episode %d: %w", i, err)
		}
		jobsPS.addMS(float64(ep.completed) / ep.service().Seconds())
		p50s.addMS(em["latency_ms.p50"].Value)
		p99s.addMS(em["latency_ms.p99"].Value)
		out.gc.cycles += ep.gc.cycles
		out.gc.pauseMS += ep.gc.pauseMS
		out.gc.peakMB = max(out.gc.peakMB, ep.gc.peakMB)
	}
	out.jobsPerSec = jobsPS.median()
	out.metrics.set("setup_s", setups.median()/1e3, "s")
	out.metrics.set("jobs_per_s", out.jobsPerSec, "1/s")
	out.metrics.set("peak_heap_mb", out.gc.peakMB, "MB")
	out.metrics.set("latency_ms.p50", p50s.median(), "ms")
	out.metrics.set("latency_ms.p99", p99s.median(), "ms")
	return out, eps, nil
}

// checkSessions drains every session over HTTP and requires its final report
// to equal, with wall-clock fields zeroed, the report of an in-process
// session fed the same accepted requests. It returns the time the replays
// spent in Session.Report.
func (d *daemon) checkSessions(cfg config, runs []*tenantRun) (time.Duration, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	var reportTime time.Duration
	for t, r := range runs {
		session := fmt.Sprintf("%s/v1/sessions/s%d", d.base, t)
		drains := 0
		for {
			var info sessionInfo
			if _, err := call(c, http.MethodPost, session+"/advance", fmt.Sprintf(`{"hours":%d}`, drainHours), &info); err != nil {
				return 0, err
			}
			drains++
			if info.Completed == info.Submitted {
				break
			}
			if drains == 100 {
				return 0, fmt.Errorf("session s%d: %d of %d jobs completed after draining", t, info.Completed, info.Submitted)
			}
		}
		var got hybridsched.Report
		if _, err := call(c, http.MethodGet, session+"/report", "", &got); err != nil {
			return 0, err
		}
		want, rt, err := replaySession(cfg.seed, t, r.accepted, drains)
		if err != nil {
			return 0, fmt.Errorf("session s%d replay: %w", t, err)
		}
		reportTime += rt
		gb, err := simtest.ReportJSON(got)
		if err != nil {
			return 0, err
		}
		wb, err := simtest.ReportJSON(want)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(gb, wb) {
			return 0, fmt.Errorf("session s%d: daemon report (%d jobs) differs from in-process replay (%d jobs)", t, got.Jobs, want.Jobs)
		}
	}
	return reportTime, nil
}

// replaySession rebuilds tenant t's session in process and applies its
// accepted requests in order with the calls the session actor makes, then
// the drain advances. It also returns the time spent in Session.Report.
func replaySession(seed int64, t int, accepted []scheddOp, drains int) (hybridsched.Report, time.Duration, error) {
	var reportTime time.Duration
	src, err := hybridsched.ParseSource(scheddSource(seed, t))
	if err != nil {
		return hybridsched.Report{}, 0, err
	}
	recs, err := hybridsched.ReadAllSource(src)
	if err != nil {
		return hybridsched.Report{}, 0, err
	}
	s, err := hybridsched.NewSession(
		hybridsched.WithMechanism("CUA&SPAA"), hybridsched.WithPolicy("fcfs"), hybridsched.WithNodes(scheddNodes))
	if err != nil {
		return hybridsched.Report{}, 0, err
	}
	defer s.Close()
	for _, r := range recs {
		if err := s.Submit(r); err != nil {
			return hybridsched.Report{}, 0, err
		}
	}
	advance := func(hours int64) error {
		until := s.Now() + hours*hybridsched.Hour
		for {
			next := min(s.Now()+advanceChunk, until)
			if err := s.RunUntil(next); err != nil {
				return err
			}
			if next == until {
				return nil
			}
		}
	}
	for _, op := range accepted {
		switch op.kind {
		case opSubmit:
			j := op.job
			err = s.Submit(hybridsched.Record{
				ID: j.ID, Class: hybridsched.Rigid, Submit: j.Submit, Size: j.Size, MinSize: j.Size,
				Work: j.Work, Estimate: j.Work, NoticeTime: j.Submit, EstArrival: j.Submit,
			})
		case opAdvance:
			err = advance(advanceHours)
		case opReport:
			t := time.Now()
			s.Report()
			reportTime += time.Since(t)
		}
		if err != nil {
			return hybridsched.Report{}, 0, err
		}
	}
	for i := 0; i < drains; i++ {
		if err := advance(drainHours); err != nil {
			return hybridsched.Report{}, 0, err
		}
	}
	return s.Report(), reportTime, nil
}

func runSchedd(cfg config) (outcome, error) {
	out, _, err := scheddRun(cfg, nil)
	return out, err
}

func traceSchedd(cfg config) (outcome, error) {
	stats := &serverStats{}
	out, eps, err := scheddRun(cfg, stats)
	if err != nil {
		return out, err
	}
	m := metricSet{}
	setGC(m, out.gc)
	var reportTime time.Duration
	var late samples
	var kinds [3]samples
	for _, ep := range eps {
		reportTime += ep.reportTime
		for _, r := range ep.runs {
			late.merge(&r.late)
			for k := range kinds {
				kinds[k].merge(&r.lat[k])
			}
		}
	}
	m.set("metrics.report_ms", float64(reportTime)/1e6, "ms")
	var errs []error
	for k, name := range []string{"submit", "advance", "read"} {
		errs = append(errs, quantiles(os.Stdout, m, "client."+name+"_ms", "ms", &kinds[k]))
	}
	errs = append(errs, stats.report(m))
	p50, _, _ := late.percentile(0.5)
	fmt.Printf("loadgen lateness: n=%d p50=%.4f ms\n", len(late.ms), p50)
	if p99, _, ok := late.percentile(0.99); ok {
		m.set("loadgen.late_ms.p99", p99, "ms")
		m.set("loadgen.late_ms.max", late.ms[len(late.ms)-1], "ms")
	} else {
		errs = append(errs, fmt.Errorf("loadgen lateness: %d samples", len(late.ms)))
	}
	out.metrics = m
	return out, errors.Join(errs...)
}

// handlerTimer wraps a daemon's handler and times every request by route
// class from inside the server, so client latency minus handler time is the
// HTTP and client cost.
type handlerTimer struct {
	next   http.Handler
	active atomic.Bool // recording: set only during the traffic
	stats  *serverStats
}

// serverStats is what the handler timers of a run's daemons recorded.
type serverStats struct {
	mu        sync.Mutex
	lat       [3]samples
	readBytes int64
	status429 int
}

// countingWriter records the status and body size of a response.
type countingWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	d := time.Since(start)
	if !h.active.Load() {
		return
	}
	class := "read"
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs"):
		class = "submit"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/advance"):
		class = "advance"
	case r.Method != http.MethodGet:
		return // session creation and the like
	}
	s := h.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat[classIndex[class]].add(d)
	if class == "read" {
		s.readBytes += cw.bytes
	}
	if cw.code == http.StatusTooManyRequests {
		s.status429++
	}
}

// report writes the server-layer metrics.
func (s *serverStats) report(m metricSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for k, name := range []string{"jobs", "advance", "read"} {
		errs = append(errs, quantiles(os.Stdout, m, "server.handler_ms."+name, "ms", &s.lat[k]))
	}
	if n := len(s.lat[2].ms); n > 0 {
		m.set("server.resp_kb.read", float64(s.readBytes)/1024/float64(n), "KB")
	}
	m.set("server.status_429", float64(s.status429), "count")
	return errors.Join(errs...)
}
