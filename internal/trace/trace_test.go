package trace

import (
	"bytes"
	"strings"
	"testing"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
)

func sampleRecords() []Record {
	return []Record{
		{ID: 1, Project: 3, Class: job.Rigid, Submit: 0, Size: 128, MinSize: 128,
			Work: 3600, Estimate: 7200, Setup: 200, Notice: job.NoNotice, NoticeTime: 0, EstArrival: 0},
		{ID: 2, Project: 5, Class: job.OnDemand, Submit: 1000, Size: 256, MinSize: 256,
			Work: 1800, Estimate: 1800, Notice: job.AccurateNotice, NoticeTime: 100, EstArrival: 1000},
		{ID: 3, Project: 7, Class: job.Malleable, Submit: 2000, Size: 512, MinSize: 103,
			Work: 5400, Estimate: 9000, Setup: 60, Notice: job.NoNotice, NoticeTime: 2000, EstArrival: 2000},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b,c,d,e,f,g,h,i,j,k,l\n"))
	if err == nil {
		t.Fatal("expected header error")
	}
}

func TestReadCSVRejectsEmpty(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadCSVRejectsInvalidRecord(t *testing.T) {
	recs := sampleRecords()
	recs[0].Estimate = 10 // < work: invalid
	var buf bytes.Buffer
	// WriteCSV does not validate; ReadCSV must.
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(&buf); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestReadCSVRejectsUnknownClass(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(buf.String(), "rigid", "elastic", 1)
	if _, err := ReadCSV(strings.NewReader(broken)); err == nil {
		t.Fatal("expected class error")
	}
}

func TestValidate(t *testing.T) {
	good := sampleRecords()[0]
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Record){
		func(r *Record) { r.Size = 0 },
		func(r *Record) { r.MinSize = 0 },
		func(r *Record) { r.MinSize = r.Size + 1 },
		func(r *Record) { r.Work = 0 },
		func(r *Record) { r.Estimate = r.Work - 1 },
		func(r *Record) { r.Submit = -1 },
		func(r *Record) { r.Setup = -1 },
		func(r *Record) { r.Class = job.Rigid; r.MinSize = r.Size - 1 },
		func(r *Record) { r.Class = 9; r.MinSize = r.Size },
	}
	for i, mutate := range cases {
		r := good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// On-demand notice after arrival.
	od := sampleRecords()[1]
	od.NoticeTime = od.Submit + 1
	if err := od.Validate(); err == nil {
		t.Error("notice after arrival should fail")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteSWF(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d jobs", len(got))
	}
	for i, g := range got {
		if g.Class != job.Rigid {
			t.Errorf("job %d: SWF import must be rigid, got %v", i, g.Class)
		}
		if g.Submit != recs[i].Submit || g.Size != recs[i].Size || g.Work != recs[i].Work {
			t.Errorf("job %d: fields lost: %+v vs %+v", i, g, recs[i])
		}
		if g.Estimate != recs[i].Estimate {
			t.Errorf("job %d: estimate lost", i)
		}
	}
}

func TestReadSWFSkipsCommentsAndBadJobs(t *testing.T) {
	in := `; comment line
; another

1 100 -1 3600 64 -1 -1 64 7200 -1 1 10 20 -1 -1 -1 -1 -1
2 200 -1 0 64 -1 -1 64 100 -1 1 10 20 -1 -1 -1 -1 -1
3 300 -1 600 0 -1 -1 0 700 -1 1 10 20 -1 -1 -1 -1 -1
4 400 -1 600 0 -1 -1 32 700 -1 1 10 20 -1 -1 -1 -1 -1
`
	got, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 (zero runtime) and job 3 (zero procs everywhere) drop; job 4
	// falls back to requested processors.
	if len(got) != 2 {
		t.Fatalf("got %d jobs, want 2", len(got))
	}
	if got[0].ID != 1 || got[1].ID != 4 || got[1].Size != 32 {
		t.Fatalf("unexpected jobs: %+v", got)
	}
	if got[0].Project != 20 {
		t.Fatalf("project should come from the group field, got %d", got[0].Project)
	}
}

func TestReadSWFRejectsShortLines(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("expected error for short line")
	}
}

func TestMaterialize(t *testing.T) {
	recs := sampleRecords()
	plan := func(size int) checkpoint.Plan {
		return checkpoint.NewPlan(size, 24*3600, 1.0)
	}
	jobs := Materialize(recs, plan)
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	if jobs[0].Class != job.Rigid || !jobs[0].Ckpt.Enabled() {
		t.Fatal("rigid job should carry a checkpoint plan")
	}
	if jobs[1].Class != job.OnDemand || jobs[1].Ckpt.Enabled() {
		t.Fatal("on-demand job must not checkpoint")
	}
	if jobs[1].Notice != job.AccurateNotice || jobs[1].NoticeTime != 100 {
		t.Fatal("notice fields lost")
	}
	if jobs[2].Class != job.Malleable || jobs[2].MinSize != 103 {
		t.Fatal("malleable fields lost")
	}
	if jobs[2].RemainingWork() != 5400*512 {
		t.Fatal("malleable work not initialized")
	}
}
