package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridsched"
)

// testServer builds a Server (with quotas q and optional state dir) and an
// httptest front end, torn down with the test.
func testServer(t *testing.T, q Quotas, stateDir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Quotas: q, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call makes one JSON request and decodes the response into out (skipped
// when out is nil). It returns the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// rigidJob is a minimal wire-form rigid job.
func rigidJob(id int, submit int64, size int, work int64) map[string]any {
	return map[string]any{"id": id, "class": "rigid", "submit": submit, "size": size, "work": work}
}

// TestTwoTenantsConcurrent is the acceptance scenario: two tenants' sessions
// hosted at once, driven over HTTP from concurrent clients, with isolated
// state and correct progress. Run under -race in CI.
func TestTwoTenantsConcurrent(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")

	ids := make([]string, 2)
	for i, tenant := range []string{"alice", "bob"} {
		var info sessionInfo
		code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{
			Tenant: tenant, Mechanism: "CUA&SPAA", Nodes: 128,
		}, &info)
		if code != http.StatusCreated {
			t.Fatalf("create for %s: status %d", tenant, code)
		}
		if info.Tenant != tenant || info.Nodes != 128 {
			t.Fatalf("create for %s: info %+v", tenant, info)
		}
		ids[i] = info.ID
	}

	// Each client drives its own session: submit 50 jobs, advance a day,
	// snapshot — all concurrently against the one daemon.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			base := ts.URL + "/v1/sessions/" + id
			for j := 1; j <= 50; j++ {
				jb := rigidJob(j, int64(j*60), 8+8*i, 1800)
				if code := call(t, "POST", base+"/jobs", jb, nil); code != http.StatusAccepted {
					errs <- fmt.Errorf("session %s job %d: status %d", id, j, code)
					return
				}
			}
			var adv advanceResponse
			if code := call(t, "POST", base+"/advance", advanceRequest{Hours: 24}, &adv); code != http.StatusOK {
				errs <- fmt.Errorf("session %s advance: status %d", id, code)
				return
			}
			if adv.Now != 24*hybridsched.Hour || adv.Submitted != 50 || adv.Completed != 50 {
				errs <- fmt.Errorf("session %s advance landed at %+v", id, adv)
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The sessions stayed isolated: each holds exactly its own jobs, and
	// the tenant filter sees only its own session.
	for i, id := range ids {
		var snap hybridsched.Snapshot
		if code := call(t, "GET", ts.URL+"/v1/sessions/"+id+"/snapshot", nil, &snap); code != http.StatusOK {
			t.Fatalf("snapshot %s: status %d", id, code)
		}
		if snap.Submitted != 50 || snap.Completed != 50 || snap.Nodes != 128 {
			t.Errorf("session %s snapshot: %d/%d on %d nodes", id, snap.Completed, snap.Submitted, snap.Nodes)
		}
		var infos []sessionInfo
		tenant := []string{"alice", "bob"}[i]
		call(t, "GET", ts.URL+"/v1/sessions?tenant="+tenant, nil, &infos)
		if len(infos) != 1 || infos[0].ID != id {
			t.Errorf("tenant %s filter: %+v", tenant, infos)
		}
	}

	// A report is servable mid-life and carries the completed jobs.
	var rep hybridsched.Report
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+ids[0]+"/report", nil, &rep); code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if rep.Jobs != 50 {
		t.Errorf("report jobs = %d, want 50", rep.Jobs)
	}
}

// TestCreateFromSource creates a session from a synthetic source spec: the
// records are materialized up front (keeping the session checkpointable)
// and counted as submissions.
func TestCreateFromSource(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{
		Tenant: "alice", Nodes: 512,
		Source: "synthetic:seed=7,weeks=1,nodes=512",
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.Submitted == 0 {
		t.Fatalf("source session submitted 0 jobs: %+v", info)
	}
	var adv advanceResponse
	if code := call(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/advance", advanceRequest{Hours: 12}, &adv); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}
	if adv.Completed == 0 {
		t.Errorf("nothing completed after 12h: %+v", adv)
	}
}

// TestSSEEvents subscribes to a session's event stream and verifies the
// typed scheduling events of a submitted job arrive over SSE, and that
// deleting the session ends the stream with an eof event.
// sseFrame is one event of an SSE stream.
type sseFrame struct{ event, data string }

// sseFrames collects the (event, data) frames of an SSE stream in the
// background; the channel closes when the stream ends.
func sseFrames(body io.Reader) <-chan sseFrame {
	frames := make(chan sseFrame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(body)
		var cur sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				frames <- cur
				cur = sseFrame{}
			}
		}
	}()
	return frames
}

func TestSSEEvents(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := sseFrames(resp.Body)
	if first := <-events; first.event != "hello" || !strings.Contains(first.data, info.ID) {
		t.Fatalf("first SSE event = %+v, want hello for %s", first, info.ID)
	}

	if code := call(t, "POST", base+"/jobs", rigidJob(1, 600, 16, 3600), nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if code := call(t, "POST", base+"/advance", advanceRequest{Hours: 3}, nil); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}

	// The job's lifecycle must stream in dispatch order.
	want := []string{"arrival", "start", "end"}
	for _, wantType := range want {
		ev, open := <-events
		if !open {
			t.Fatalf("stream ended before %q event", wantType)
		}
		var we wireEvent
		if err := json.Unmarshal([]byte(ev.data), &we); err != nil {
			t.Fatalf("bad sched payload %q: %v", ev.data, err)
		}
		if ev.event != "sched" || we.Type != wantType || we.Job != 1 {
			t.Fatalf("got %s %+v, want sched %s for job 1", ev.event, we, wantType)
		}
	}

	// Deleting the session closes its Events channels; the stream must end
	// with an eof frame rather than hang.
	if code := call(t, "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	sawEOF := false
	for ev := range events {
		if ev.event == "eof" {
			sawEOF = true
		}
	}
	if !sawEOF {
		t.Fatal("stream ended without an eof event after delete")
	}
}

// TestCheckpointRestore is the kill/restart acceptance scenario: sessions
// hosted by a drained daemon are restored by the next one from the state
// dir, with snapshots equal to the pre-kill state byte for byte.
func TestCheckpointRestore(t *testing.T) {
	stateDir := t.TempDir()
	srv1, ts1 := testServer(t, Quotas{}, stateDir)

	// Two tenants, different mechanisms, advanced to different instants —
	// the restore must bring back both, each at its own clock.
	pre := map[string][]byte{}
	for i, tenant := range []string{"alice", "bob"} {
		var info sessionInfo
		code := call(t, "POST", ts1.URL+"/v1/sessions", createRequest{
			Tenant: tenant, ID: tenant + "-exp", Nodes: 128,
			Mechanism: []string{"CUA&SPAA", "baseline"}[i],
		}, &info)
		if code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		base := ts1.URL + "/v1/sessions/" + info.ID
		for j := 1; j <= 30; j++ {
			if code := call(t, "POST", base+"/jobs", rigidJob(j, int64(j*300), 16, 7200), nil); code != http.StatusAccepted {
				t.Fatalf("submit: status %d", code)
			}
		}
		if code := call(t, "POST", base+"/advance", advanceRequest{Hours: int64(4 + 2*i)}, nil); code != http.StatusOK {
			t.Fatalf("advance: status %d", code)
		}
		req, _ := http.NewRequest("GET", base+"/snapshot", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pre[info.ID] = data
	}

	// Graceful drain checkpoints both sessions into the state dir.
	ts1.Close()
	srv1.Drain()

	// A fresh daemon over the same state dir restores them.
	srv2, ts2 := testServer(t, Quotas{}, stateDir)
	var infos []sessionInfo
	if code := call(t, "GET", ts2.URL+"/v1/sessions", nil, &infos); code != http.StatusOK {
		t.Fatalf("list after restore: status %d", code)
	}
	if len(infos) != 2 {
		t.Fatalf("restored %d sessions, want 2: %+v", len(infos), infos)
	}
	if srv2.met.sessionsRestored.Value() != 2 {
		t.Errorf("sessionsRestored = %d, want 2", srv2.met.sessionsRestored.Value())
	}
	for id, want := range pre {
		req, _ := http.NewRequest("GET", ts2.URL+"/v1/sessions/"+id+"/snapshot", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("session %s: restored snapshot differs from pre-kill state\npre:  %s\npost: %s", id, want, got)
		}
	}

	// The restored sessions are live, not museum pieces: they advance on.
	var adv advanceResponse
	if code := call(t, "POST", ts2.URL+"/v1/sessions/alice-exp/advance", advanceRequest{Hours: 48}, &adv); code != http.StatusOK {
		t.Fatalf("advance after restore: status %d", code)
	}
	if adv.Completed != 30 {
		t.Errorf("restored session completed %d/30 after 48h more", adv.Completed)
	}
}

// TestRestoreWithoutSidecarListsNames: a session restored from its frame
// alone (the tenant--id file name standing in for the missing sidecar)
// lists the mechanism and policy the frame holds.
func TestRestoreWithoutSidecarListsNames(t *testing.T) {
	stateDir := t.TempDir()
	srv1, ts1 := testServer(t, Quotas{}, stateDir)
	create := createRequest{Tenant: "acme", ID: "exp1", Mechanism: "baseline", Policy: "sjf", Nodes: 64}
	if code := call(t, "POST", ts1.URL+"/v1/sessions", create, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	ts1.Close()
	srv1.Drain()
	if err := os.Remove(filepath.Join(stateDir, "acme--exp1.meta.json")); err != nil {
		t.Fatal(err)
	}

	_, ts2 := testServer(t, Quotas{}, stateDir)
	var infos []sessionInfo
	if code := call(t, "GET", ts2.URL+"/v1/sessions", nil, &infos); code != http.StatusOK {
		t.Fatalf("list after restore: status %d", code)
	}
	if len(infos) != 1 {
		t.Fatalf("restored %d sessions, want 1: %+v", len(infos), infos)
	}
	got := infos[0]
	if got.Tenant != "acme" || got.ID != "exp1" || got.Mechanism != "baseline" || got.Policy != "sjf" || got.Nodes != 64 {
		t.Fatalf("restored session lists as %+v", got)
	}
}

// TestRestoreEqualsUninterrupted pins that serving a workload through a
// drain/restore cycle yields the same final report as an uninterrupted
// session — the daemon's persistence rides PR 6's byte-identical resume.
func TestRestoreEqualsUninterrupted(t *testing.T) {
	// Reference: one uninterrupted session.
	ref, err := hybridsched.NewSession(hybridsched.WithNodes(128), hybridsched.WithMechanism("CUA&SPAA"))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 40; j++ {
		if err := ref.Submit(hybridsched.Record{ID: j, Class: hybridsched.Rigid,
			Submit: int64(j * 500), Size: 16, Work: 7200, Estimate: 9000}); err != nil {
			t.Fatal(err)
		}
	}
	refRep, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(stripWallClock(refRep))

	// Same workload through the daemon, with a drain/restore in the middle.
	stateDir := t.TempDir()
	srv1, ts1 := testServer(t, Quotas{}, stateDir)
	var info sessionInfo
	if code := call(t, "POST", ts1.URL+"/v1/sessions", createRequest{Tenant: "alice", ID: "exp", Nodes: 128}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base1 := ts1.URL + "/v1/sessions/exp"
	for j := 1; j <= 40; j++ {
		if code := call(t, "POST", base1+"/jobs", rigidJob(j, int64(j*500), 16, 7200), nil); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
	}
	if code := call(t, "POST", base1+"/advance", advanceRequest{Hours: 3}, nil); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}
	ts1.Close()
	srv1.Drain()

	_, ts2 := testServer(t, Quotas{}, stateDir)
	// Drive far past the last completion, then compare reports.
	if code := call(t, "POST", ts2.URL+"/v1/sessions/exp/advance", advanceRequest{Hours: 300}, nil); code != http.StatusOK {
		t.Fatalf("advance after restore: status %d", code)
	}
	var rep hybridsched.Report
	if code := call(t, "GET", ts2.URL+"/v1/sessions/exp/report", nil, &rep); code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	gotJSON, _ := json.Marshal(stripWallClock(rep))
	if !bytes.Equal(gotJSON, refJSON) {
		t.Errorf("drain/restore report differs from uninterrupted run\nref: %s\ngot: %s", refJSON, gotJSON)
	}
}

// stripWallClock zeroes the wall-clock decision-latency fields, the one
// part of a report the byte-identical resume contract excludes.
func stripWallClock(r hybridsched.Report) hybridsched.Report {
	r.DecisionCount = 0
	r.MeanDecisionMs = 0
	r.MaxDecisionMs = 0
	return r
}

// TestMetricsEndpoint scrapes /metrics and checks the Prometheus text
// families the ops surface promises.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	if code := call(t, "POST", base+"/jobs", rigidJob(1, 0, 16, 600), nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if code := call(t, "POST", base+"/advance", advanceRequest{Hours: 1}, nil); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"schedd_sessions_live 1",
		"schedd_sessions_created_total 1",
		"schedd_jobs_submitted_total 1",
		"schedd_jobs_completed_total 1",
		"schedd_events_emitted_total",
		"schedd_tenant_sessions{tenant=\"alice\"} 1",
		"schedd_request_duration_seconds_count",
		"schedd_http_requests_total{code=\"200\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestBadInputs covers the API's validation edges: bad tenant names, bad
// system sizes, bad class names, malformed advances, and unknown sessions.
func TestBadInputs(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "no/slashes"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad tenant: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Mechanism: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown mechanism: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: -5}, nil); code != http.StatusBadRequest {
		t.Errorf("negative node count: status %d", code)
	}
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	if code := call(t, "POST", base+"/jobs", map[string]any{"id": 1, "class": "wibbly", "submit": 0, "size": 4, "work": 60}, nil); code != http.StatusBadRequest {
		t.Errorf("bad class: status %d", code)
	}
	if code := call(t, "POST", base+"/jobs", rigidJob(1, 0, 0, 60), nil); code != http.StatusBadRequest {
		t.Errorf("zero size: status %d", code)
	}
	if code := call(t, "POST", base+"/advance", advanceRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty advance: status %d", code)
	}
	if code := call(t, "POST", base+"/advance", advanceRequest{Until: 1, Steps: 1}, nil); code != http.StatusBadRequest {
		t.Errorf("two-mode advance: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/v1/sessions/ghost/snapshot", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
	if code := call(t, "POST", base+"/checkpoint", nil, nil); code != http.StatusBadRequest {
		t.Errorf("checkpoint without state dir: status %d", code)
	}
}

// TestJobBodyRefusesUnknownFields: a misspelled job field is a 400 in the
// object form and in the array form, as in create and advance bodies, and
// so is data after the JSON value; none of these submits anything.
func TestJobBodyRefusesUnknownFields(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	post := func(body string) int {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const job = `{"id":1,"class":"rigid","submit":600,"size":4,"work":60}`
	for _, body := range []string{
		`{"id":1,"class":"rigid","sumbit":600,"size":4,"work":60}`,
		`[` + job + `,{"id":2,"class":"rigid","sumbit":600,"size":4,"work":60}]`,
		job + ` {"id":2}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
	}
	if call(t, "GET", base, nil, &info); info.Submitted != 0 {
		t.Fatalf("refused bodies submitted %d jobs", info.Submitted)
	}
	if code := post(" " + job + "\n"); code != http.StatusAccepted {
		t.Errorf("well-formed job: status %d, want 202", code)
	}
}

// TestBodiesRefuseTrailingData: create and advance bodies hold one JSON
// value, as job bodies do. Data after it is a 400 that creates no session
// and advances no clock; white space after it is fine.
func TestBodiesRefuseTrailingData(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	post := func(url, body string) int {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const create = `{"tenant":"alice","nodes":64}`
	for _, body := range []string{create + ` {"tenant":"bob"}`, create + `garbage`} {
		if code := post(ts.URL+"/v1/sessions", body); code != http.StatusBadRequest {
			t.Errorf("create %s: status %d, want 400", body, code)
		}
	}
	var infos []sessionInfo
	if call(t, "GET", ts.URL+"/v1/sessions", nil, &infos); len(infos) != 0 {
		t.Fatalf("refused creates left %d sessions", len(infos))
	}
	if code := post(ts.URL+"/v1/sessions", create+"\n\t "); code != http.StatusCreated {
		t.Fatalf("create with trailing white space: status %d, want 201", code)
	}
	if call(t, "GET", ts.URL+"/v1/sessions", nil, &infos); len(infos) != 1 {
		t.Fatalf("%d sessions, want 1", len(infos))
	}
	base := ts.URL + "/v1/sessions/" + infos[0].ID
	if code := post(base+"/advance", `{"hours":1}{"steps":5}`); code != http.StatusBadRequest {
		t.Errorf("advance with a second value: status %d, want 400", code)
	}
	var info sessionInfo
	if call(t, "GET", base, nil, &info); info.Now != 0 {
		t.Fatalf("refused advance moved the clock to %d", info.Now)
	}
	if code := post(base+"/advance", `{"hours":1} `); code != http.StatusOK {
		t.Errorf("advance with trailing white space: status %d, want 200", code)
	}
}

// TestSSEDetachesDepartedClients: a client that leaves the event stream
// detaches its channel, so later clients see no drops that only departed
// clients suffered. Three clients connect and leave; a fourth that keeps up
// then streams more events than one channel buffers without a dropped frame.
func TestSSEDetachesDepartedClients(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A server connection reaches StateClosed only after its handler has
	// returned, so counting closes tells when the departed clients' handlers
	// are done.
	closed := make(chan struct{}, 16)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	for i := 0; i < 3; i++ {
		tr := &http.Transport{}
		resp, err := (&http.Client{Transport: tr}).Get(base + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if first := <-sseFrames(resp.Body); first.event != "hello" {
			t.Fatalf("client %d: first frame %+v, want hello", i, first)
		}
		resp.Body.Close()
		tr.CloseIdleConnections()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 3 departed event streams still open", 3-i)
		}
	}

	keepUp(t, base)
}

// keepUp connects an SSE client to the session at base and streams more
// events through it than one channel buffers, failing on any dropped frame:
// the client keeps up, so none of the drops are its own.
func keepUp(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := sseFrames(resp.Body)
	if first := <-frames; first.event != "hello" {
		t.Fatalf("first frame %+v, want hello", first)
	}
	// Three batches of 500 one-minute jobs make three events each: 4,500 in
	// all, against a 4,096-event channel buffer. Each batch is read to its
	// last job's end before the next is sent, so this client keeps up.
	const batch = 500
	streamed := 0
	for b := 0; b < 3; b++ {
		start := int64(b) * 10000
		jobs := make([]map[string]any, batch)
		for i := range jobs {
			jobs[i] = rigidJob(b*batch+i+1, start+int64(i)*10, 1, 60)
		}
		if code := call(t, "POST", base+"/jobs", jobs, nil); code != http.StatusAccepted {
			t.Fatalf("batch %d: submit status %d", b, code)
		}
		if code := call(t, "POST", base+"/advance", advanceRequest{Until: start + 9000}, nil); code != http.StatusOK {
			t.Fatalf("batch %d: advance status %d", b, code)
		}
		for last := false; !last; {
			f, open := <-frames
			if !open {
				t.Fatalf("stream ended after %d events", streamed)
			}
			switch f.event {
			case "dropped":
				t.Fatalf("dropped frame %s after %d events, with no consumer behind", f.data, streamed)
			case "sched":
				streamed++
				var we wireEvent
				if err := json.Unmarshal([]byte(f.data), &we); err != nil {
					t.Fatal(err)
				}
				last = we.Type == "end" && we.Job == (b+1)*batch
			}
		}
	}
	if streamed <= 4096 {
		t.Fatalf("streamed %d events, want more than a channel buffers", streamed)
	}
}

// TestSSEReportsOwnDrops: each SSE client is told only of the events
// dropped from its own channel. A second Events channel on the session is
// never read, so it drops events while a client that keeps up streams more
// than one channel buffers without a dropped frame; the session-wide count
// still counts the other channel's drops.
func TestSSEReportsOwnDrops(t *testing.T) {
	srv, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	a, ok := srv.lookup(info.ID)
	if !ok {
		t.Fatalf("no session %q", info.ID)
	}
	if err := a.do(func(sess *hybridsched.Session) error {
		sess.Events()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	keepUp(t, base)
	if call(t, "GET", base, nil, &info); info.Dropped == 0 {
		t.Fatal("the unread channel dropped no events; dropped_events counts 0")
	}
}

// TestAdvanceBySteps drives a session event by event over HTTP.
func TestAdvanceBySteps(t *testing.T) {
	_, ts := testServer(t, Quotas{}, "")
	var info sessionInfo
	if code := call(t, "POST", ts.URL+"/v1/sessions", createRequest{Tenant: "alice", Nodes: 64}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	if code := call(t, "POST", base+"/jobs", rigidJob(1, 0, 16, 600), nil); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	var adv advanceResponse
	if code := call(t, "POST", base+"/advance", advanceRequest{Steps: 1}, &adv); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if adv.Steps != 1 {
		t.Errorf("processed %d steps, want 1", adv.Steps)
	}
	// Stepping far past the drain point stops at the drained queue.
	if code := call(t, "POST", base+"/advance", advanceRequest{Steps: 10_000}, &adv); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if adv.Completed != 1 {
		t.Errorf("completed %d, want 1", adv.Completed)
	}
}
