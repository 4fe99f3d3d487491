// Package trace defines the on-disk job-trace formats of the simulator.
//
// The native format is a CSV dialect that carries the hybrid-workload
// extensions the paper needs (job class, malleable minimum size, advance
// notice category and times). A reader and writer for the Standard Workload
// Format (SWF) used by the Parallel Workloads Archive are also provided so
// that external rigid-job traces can seed experiments.
//
// # SWF import semantics
//
// SWF carries no hybrid extensions, so every SWF job imports as rigid —
// there is deliberately no knob to change that at parse time. Reassigning
// imported jobs to the on-demand or malleable classes is the job of the
// source layer's Relabel transform (the paper's §IV-A project-relabeling
// trick), which keeps the parser a faithful reader of what the file says.
// Beyond the class default, the importer fills gaps common in archive logs:
// a missing or too-small requested time becomes the actual runtime, a
// missing allocated-processor count falls back to the requested count, and
// a missing group ID yields project 0. Jobs with non-positive runtime or
// processor counts (failed or cancelled entries) are skipped, matching
// common SWF cleaning practice. Every one of these decisions is counted in
// an SWFSummary so callers can surface what the import did instead of
// guessing; use NewSWFReader + Summary (or ReadSWFSummary at the facade)
// to obtain it.
//
// Both formats have streaming readers (CSVReader, SWFReader) that parse one
// record per Next call, so multi-week traces can feed a simulation lazily
// without ever being resident in memory as a whole; ReadCSV and ReadSWF are
// slurp-all conveniences built on top of them.
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hybridsched/internal/checkpoint"
	"hybridsched/internal/job"
)

// Record is one job in a trace. It mirrors the static half of job.Job.
type Record struct {
	ID         int
	Project    int
	Class      job.Class
	Submit     int64 // actual arrival time (seconds from trace start)
	Size       int   // requested nodes (maximum size for malleable jobs)
	MinSize    int   // minimum size (malleable; == Size otherwise)
	Work       int64 // actual runtime at Size, seconds
	Estimate   int64 // user runtime estimate, seconds
	Setup      int64 // startup overhead, seconds
	Notice     job.NoticeCategory
	NoticeTime int64 // advance-notice instant (== Submit when NoNotice)
	EstArrival int64 // arrival estimate carried by the notice
}

// Validate checks internal consistency of a record.
func (r Record) Validate() error {
	switch {
	case r.Class < job.Rigid || r.Class > job.Malleable:
		return fmt.Errorf("trace: job %d: unknown class %v", r.ID, r.Class)
	case r.Size < 1:
		return fmt.Errorf("trace: job %d: size %d < 1", r.ID, r.Size)
	case r.MinSize < 1 || r.MinSize > r.Size:
		return fmt.Errorf("trace: job %d: min size %d outside [1,%d]", r.ID, r.MinSize, r.Size)
	case r.Work < 1:
		return fmt.Errorf("trace: job %d: work %d < 1", r.ID, r.Work)
	case r.Estimate < r.Work:
		return fmt.Errorf("trace: job %d: estimate %d < work %d", r.ID, r.Estimate, r.Work)
	case r.Submit < 0:
		return fmt.Errorf("trace: job %d: negative submit %d", r.ID, r.Submit)
	case r.Setup < 0:
		return fmt.Errorf("trace: job %d: negative setup %d", r.ID, r.Setup)
	case r.Class == job.OnDemand && r.NoticeTime > r.Submit:
		return fmt.Errorf("trace: job %d: notice %d after arrival %d", r.ID, r.NoticeTime, r.Submit)
	case r.Class != job.Malleable && r.MinSize != r.Size:
		return fmt.Errorf("trace: job %d: %v job with min size %d != size %d", r.ID, r.Class, r.MinSize, r.Size)
	}
	return nil
}

// Normalize returns r with a fixed-size job's MinSize set to its Size (the
// simulator ignores it, and hand-built records often leave it zero or
// stale), or an error when the result fails Validate. A record it accepts
// materializes into a job.
func (r Record) Normalize() (Record, error) {
	if r.Class != job.Malleable {
		r.MinSize = r.Size
	}
	return r, r.Validate()
}

var csvHeader = []string{
	"id", "project", "class", "submit", "size", "min_size",
	"work", "estimate", "setup", "notice", "notice_time", "est_arrival",
}

// WriteCSV writes records in the native CSV dialect.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			strconv.Itoa(r.ID),
			strconv.Itoa(r.Project),
			r.Class.String(),
			strconv.FormatInt(r.Submit, 10),
			strconv.Itoa(r.Size),
			strconv.Itoa(r.MinSize),
			strconv.FormatInt(r.Work, 10),
			strconv.FormatInt(r.Estimate, 10),
			strconv.FormatInt(r.Setup, 10),
			r.Notice.String(),
			strconv.FormatInt(r.NoticeTime, 10),
			strconv.FormatInt(r.EstArrival, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVReader parses the native CSV dialect one record at a time, validating
// each record as it is read. The header row is checked on the first Next.
// Errors are sticky: after any failure (including io.EOF at the end of the
// trace) every subsequent Next returns the same error.
type CSVReader struct {
	cr     *csv.Reader
	row    int // rows consumed so far (1 = header), for error positions
	err    error
	header bool
}

// NewCSVReader returns a streaming reader over the native CSV dialect.
// Gzip-compressed input is decompressed transparently (see MaybeGzip).
func NewCSVReader(r io.Reader) *CSVReader {
	cr := csv.NewReader(MaybeGzip(r))
	cr.FieldsPerRecord = len(csvHeader)
	return &CSVReader{cr: cr}
}

// Row returns the number of CSV rows consumed so far, counting the header as
// row 1 — i.e. the row the most recent record (or error) came from. Callers
// layering their own checks on top of the reader (duplicate IDs, cross-record
// invariants) use it to position their diagnostics.
func (r *CSVReader) Row() int { return r.row }

// Next returns the next record of the trace. It returns io.EOF after the
// last record and any other error exactly once (then sticks to it).
func (r *CSVReader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	fail := func(err error) (Record, error) {
		r.err = err
		return Record{}, err
	}
	if !r.header {
		row, err := r.cr.Read()
		if err == io.EOF {
			return fail(fmt.Errorf("trace: empty file"))
		}
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		for i, name := range csvHeader {
			if row[i] != name {
				return fail(fmt.Errorf("trace: bad header column %d: %q", i, row[i]))
			}
		}
		r.header = true
		r.row = 1
	}
	row, err := r.cr.Read()
	if err == io.EOF {
		return fail(io.EOF)
	}
	if err != nil {
		return fail(fmt.Errorf("trace: %w", err))
	}
	r.row++
	rec, err := parseCSVRow(row)
	if err != nil {
		return fail(fmt.Errorf("trace: row %d: %w", r.row, err))
	}
	if err := rec.Validate(); err != nil {
		// Validate speaks in job IDs; the reader adds where in the file the
		// offending record sits (its own "trace: " prefix is dropped so the
		// message carries one prefix, not two).
		return fail(fmt.Errorf("trace: row %d: %s", r.row,
			strings.TrimPrefix(err.Error(), "trace: ")))
	}
	return rec, nil
}

// ReadCSV parses the native CSV dialect and validates every record. It is
// the slurp-all form of CSVReader.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := NewCSVReader(r)
	records := make([]Record, 0, 64)
	for {
		rec, err := cr.Next()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
}

func parseCSVRow(row []string) (Record, error) {
	var r Record
	var err error
	geti := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	get64 := func(s string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = strconv.ParseInt(s, 10, 64)
		return v
	}
	r.ID = geti(row[0])
	r.Project = geti(row[1])
	var ok bool
	if r.Class, ok = job.ParseClass(row[2]); !ok {
		return r, fmt.Errorf("unknown class %q", row[2])
	}
	r.Submit = get64(row[3])
	r.Size = geti(row[4])
	r.MinSize = geti(row[5])
	r.Work = get64(row[6])
	r.Estimate = get64(row[7])
	r.Setup = get64(row[8])
	if r.Notice, ok = job.ParseNotice(row[9]); !ok {
		return r, fmt.Errorf("unknown notice category %q", row[9])
	}
	r.NoticeTime = get64(row[10])
	r.EstArrival = get64(row[11])
	return r, err
}

// SWFSummary reports what an SWF import did: how many jobs were produced,
// how many were skipped as unrunnable, and how often missing or inconsistent
// fields were filled with defaults. It makes the importer's silent decisions
// (above all: every job becomes rigid) visible to callers.
type SWFSummary struct {
	// JobsRead is the number of records produced.
	JobsRead int
	// JobsSkipped counts lines dropped for non-positive runtime or
	// processor count, or a negative submit time (failed/cancelled entries).
	JobsSkipped int
	// EstimatesDefaulted counts records whose requested time was missing or
	// below the actual runtime and was raised to the runtime.
	EstimatesDefaulted int
	// SizeFallbacks counts records whose allocated-processor field was
	// non-positive and whose requested-processor field was used instead.
	SizeFallbacks int
	// ProjectsDefaulted counts records with no group-ID field (project 0).
	ProjectsDefaulted int
}

// String renders the summary as one human-readable line.
func (s SWFSummary) String() string {
	return fmt.Sprintf("%d jobs read (all rigid), %d skipped; defaults: %d estimates, %d sizes, %d projects",
		s.JobsRead, s.JobsSkipped, s.EstimatesDefaulted, s.SizeFallbacks, s.ProjectsDefaulted)
}

// SWFReader parses a Standard Workload Format trace one job at a time.
// Comment lines (;) are skipped, jobs with non-positive runtime or processor
// counts are dropped, and every job imports as rigid (see the package
// documentation for the full import semantics). Errors are sticky, matching
// CSVReader. Summary may be consulted at any point and is complete once Next
// has returned io.EOF.
type SWFReader struct {
	sc   *bufio.Scanner
	line int
	sum  SWFSummary
	err  error
}

// NewSWFReader returns a streaming reader over an SWF trace.
// Gzip-compressed input is decompressed transparently (see MaybeGzip).
func NewSWFReader(r io.Reader) *SWFReader {
	sc := bufio.NewScanner(MaybeGzip(r))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &SWFReader{sc: sc}
}

// Line returns the number of input lines consumed so far — the line the most
// recent record (or error) came from, for callers positioning diagnostics of
// their own (see CSVReader.Row).
func (r *SWFReader) Line() int { return r.line }

// Summary returns the import counters accumulated so far.
func (r *SWFReader) Summary() SWFSummary { return r.sum }

// Next returns the next imported job, io.EOF at the end of the trace, or a
// parse error (all sticky).
func (r *SWFReader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	fail := func(err error) (Record, error) {
		r.err = err
		return Record{}, err
	}
	for r.sc.Scan() {
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 11 {
			return fail(fmt.Errorf("trace: swf line %d: %d fields, want >= 11", r.line, len(f)))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return fail(fmt.Errorf("trace: swf line %d: %w", r.line, err))
		}
		submit, _ := strconv.ParseInt(f[1], 10, 64)
		runtime, _ := strconv.ParseInt(f[3], 10, 64)
		procs, _ := strconv.Atoi(f[4])
		sizeFellBack := false
		if procs <= 0 && len(f) > 7 {
			procs, _ = strconv.Atoi(f[7]) // fall back to requested processors
			sizeFellBack = procs > 0
		}
		var estimate int64
		if len(f) > 8 {
			estimate, _ = strconv.ParseInt(f[8], 10, 64)
		}
		estimateDefaulted := estimate < runtime
		if estimateDefaulted {
			estimate = runtime
		}
		project := 0
		projectDefaulted := len(f) <= 12
		if !projectDefaulted {
			project, _ = strconv.Atoi(f[12])
		}
		if runtime <= 0 || procs <= 0 || submit < 0 {
			r.sum.JobsSkipped++
			continue
		}
		r.sum.JobsRead++
		if estimateDefaulted {
			r.sum.EstimatesDefaulted++
		}
		if sizeFellBack {
			r.sum.SizeFallbacks++
		}
		if projectDefaulted {
			r.sum.ProjectsDefaulted++
		}
		return Record{
			ID:         id,
			Project:    project,
			Class:      job.Rigid,
			Submit:     submit,
			Size:       procs,
			MinSize:    procs,
			Work:       runtime,
			Estimate:   estimate,
			NoticeTime: submit,
			EstArrival: submit,
		}, nil
	}
	if err := r.sc.Err(); err != nil {
		return fail(fmt.Errorf("trace: %w", err))
	}
	return fail(io.EOF)
}

// ReadSWF parses a Standard Workload Format trace; it is the slurp-all form
// of SWFReader (see the package documentation for the import semantics).
func ReadSWF(r io.Reader) ([]Record, error) {
	records, _, err := ReadSWFSummary(r)
	return records, err
}

// ReadSWFSummary parses an SWF trace and additionally returns the import
// summary, so callers can report what was defaulted and what was dropped.
func ReadSWFSummary(r io.Reader) ([]Record, SWFSummary, error) {
	sr := NewSWFReader(r)
	var records []Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return records, sr.Summary(), nil
		}
		if err != nil {
			return nil, sr.Summary(), err
		}
		records = append(records, rec)
	}
}

// WriteSWF writes records as SWF. Hybrid extensions are lossy: class,
// minimum size and notice information are dropped (a header comment notes
// the original class mix).
func WriteSWF(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "; SWF export from hybridsched (class/notice extensions dropped)")
	for _, r := range records {
		// id submit wait run procs avgcpu mem reqprocs reqtime reqmem status
		// uid gid exe queue partition prevjob thinktime
		_, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d %d -1 -1 -1 -1 -1\n",
			r.ID, r.Submit, r.Work, r.Size, r.Size, r.Estimate, r.Project, r.Project)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Materialize converts records into simulator jobs, attaching the checkpoint
// plan returned by plan for each rigid job's size. Records are not modified.
// A record of no known class yields a nil job; Validate refuses one.
func Materialize(records []Record, plan func(size int) checkpoint.Plan) []*job.Job {
	jobs := make([]*job.Job, 0, len(records))
	for _, r := range records {
		var j *job.Job
		switch r.Class {
		case job.Rigid:
			j = job.NewRigid(r.ID, r.Project, r.Submit, r.Size, r.Work, r.Estimate, r.Setup, plan(r.Size))
		case job.OnDemand:
			j = job.NewOnDemand(r.ID, r.Project, r.Submit, r.Size, r.Work, r.Estimate, r.Setup,
				r.Notice, r.NoticeTime, r.EstArrival)
		case job.Malleable:
			j = job.NewMalleable(r.ID, r.Project, r.Submit, r.Size, r.MinSize, r.Work, r.Estimate, r.Setup)
		}
		jobs = append(jobs, j)
	}
	return jobs
}
