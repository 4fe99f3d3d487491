// Command tracegen synthesizes hybrid workload traces from the calibrated
// Theta model and writes them in the native CSV schema (or SWF with the
// hybrid extensions dropped). It doubles as the trace toolbox: -source
// materializes any source-spec pipeline (transforming existing traces
// instead of generating), -summarize characterizes a pipeline in constant
// memory (distributions of inter-arrival, width, runtime, plus class mix),
// and -validate checks a trace file record by record.
//
// Usage:
//
//	tracegen -seed 1 -weeks 4 -mix W5 -o trace.csv
//	tracegen -seed 2 -format swf -o trace.swf
//	tracegen -summary                                # Table I style characterization
//	tracegen -source 'swf:theta.swf|relabel:paper' -o hybrid.csv
//	tracegen -source 'borg:events.csv.gz|relabel:paper' -summarize
//	tracegen -validate trace.csv                     # exit 1 on first bad record
//	tracegen -validate events.csv.gz -in borg        # corpus dialects need -in
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hybridsched"
	"hybridsched/internal/trace"
	"hybridsched/internal/tracecorpus"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "random seed (same seed, same trace)")
		weeks     = flag.Int("weeks", 4, "trace length in weeks")
		nodes     = flag.Int("nodes", 4392, "system size in nodes")
		mixName   = flag.String("mix", "W5", "advance-notice mix, W1..W5 (Table III)")
		load      = flag.Float64("load", 0, "target offered load (0 = calibrated default)")
		format    = flag.String("format", "csv", "output format: csv or swf")
		out       = flag.String("o", "", "output file (default stdout)")
		summary   = flag.Bool("summary", false, "print the workload summary instead of the trace")
		summarize = flag.Bool("summarize", false, "characterize the trace in constant memory instead of writing it: class mix plus inter-arrival, width, and runtime distributions")
		srcSpec   = flag.String("source", "", "materialize this source spec instead of generating, e.g. 'swf:theta.swf|relabel:paper|scale:1.2'")
		validate  = flag.String("validate", "", "validate this trace file and exit; non-zero status with the position of the first offending record")
		dialect   = flag.String("in", "auto", "trace dialect for -validate: auto (.swf/.swf.gz = SWF, else CSV), csv, swf, borg, alibaba")
	)
	flag.Parse()

	if *validate != "" {
		os.Exit(runValidate(*validate, *dialect))
	}

	// Every output reads one workload stream: the source spec when given,
	// the calibrated generator otherwise.
	var src hybridsched.Source
	if *srcSpec != "" {
		var err error
		if src, err = hybridsched.ParseSource(*srcSpec); err != nil {
			fatal(err)
		}
	} else {
		mix, err := hybridsched.MixByName(*mixName)
		if err != nil {
			fatal(fmt.Errorf("%v (want W1..W5)", err))
		}
		src = hybridsched.Synthetic(hybridsched.WorkloadConfig{
			Seed:       *seed,
			Weeks:      *weeks,
			Nodes:      *nodes,
			Mix:        mix,
			TargetLoad: *load,
		})
	}

	if *summarize || *summary {
		// Characterization is streaming: the pipeline is drained record by
		// record, so a multi-month corpus profiles in constant memory.
		p, err := tracecorpus.Characterize(src)
		if err != nil {
			fatal(err)
		}
		w := outWriter(*out)
		if *summarize {
			p.Render(w)
			return
		}
		fmt.Fprintf(w, "jobs:       %d\n", p.Jobs)
		fmt.Fprintf(w, "rigid:      %d\n", p.Classes[hybridsched.Rigid])
		fmt.Fprintf(w, "on-demand:  %d\n", p.Classes[hybridsched.OnDemand])
		fmt.Fprintf(w, "malleable:  %d\n", p.Classes[hybridsched.Malleable])
		fmt.Fprintf(w, "node-hours: %.0f\n", p.NodeHours)
		return
	}

	records, err := hybridsched.ReadAllSource(src)
	if err != nil {
		fatal(err)
	}
	w := outWriter(*out)
	switch *format {
	case "csv":
		err = hybridsched.WriteTraceCSV(w, records)
	case "swf":
		err = hybridsched.WriteSWF(w, records)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// runValidate streams a trace file through the validating readers and
// reports the first offending record with its position in the input file —
// parse and validation failures carry the reader's own row/line number, and
// caller-side checks (duplicate IDs) report the reader's position too.
// Records are never held in memory — only the duplicate-ID set grows with
// the job count. SWF, Borg, and Alibaba inputs additionally get their import
// summary (jobs skipped, fields defaulted) printed. Exit status: 0 clean,
// 1 invalid (or unreadable).
func runValidate(path, dialect string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen: validate:", err)
		return 1
	}
	defer f.Close()

	if dialect == "" || dialect == "auto" {
		// Like source.Open: the extension (with a trailing .gz stripped)
		// picks SWF vs native CSV. The corpus dialects are never guessed.
		dialect = "csv"
		if strings.HasSuffix(strings.TrimSuffix(strings.ToLower(path), ".gz"), ".swf") {
			dialect = "swf"
		}
	}

	// The streaming readers validate every record and position their errors,
	// so the first offending record surfaces as next's error; pos reports the
	// reader's current position for checks made out here.
	var next func() (hybridsched.Record, error)
	var pos func() string
	var summary func() string
	switch dialect {
	case "swf":
		sr := trace.NewSWFReader(f)
		next = sr.Next
		pos = func() string { return fmt.Sprintf("line %d", sr.Line()) }
		summary = func() string { return sr.Summary().String() }
	case "csv":
		cr := trace.NewCSVReader(f)
		next = cr.Next
		pos = func() string { return fmt.Sprintf("row %d", cr.Row()) }
	case "borg":
		br := tracecorpus.NewBorgReader(f)
		next = br.Next
		pos = func() string { return fmt.Sprintf("row %d", br.Row()) }
		summary = func() string { return br.Summary().String() }
	case "alibaba":
		ar := tracecorpus.NewAlibabaReader(f)
		next = ar.Next
		pos = func() string { return fmt.Sprintf("row %d", ar.Row()) }
		summary = func() string { return ar.Summary().String() }
	default:
		fmt.Fprintf(os.Stderr, "tracegen: validate: unknown dialect %q (want auto, csv, swf, borg, alibaba)\n", dialect)
		return 1
	}

	n := 0
	seen := make(map[int]bool)
	for {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: validate: %s: %v\n", path, err)
			return 1
		}
		if seen[rec.ID] {
			fmt.Fprintf(os.Stderr, "tracegen: validate: %s: duplicate job ID %d (record %d, at input %s)\n",
				path, rec.ID, n+1, pos())
			return 1
		}
		seen[rec.ID] = true
		n++
	}
	fmt.Printf("%s: ok (%d %s records)\n", path, n, dialect)
	if summary != nil {
		fmt.Printf("%s import: %s\n", dialect, summary())
	}
	return 0
}

// outWriter opens the -o target, defaulting to stdout. The file is not
// explicitly closed: os.File writes are unbuffered and the process exits
// right after the write completes.
func outWriter(path string) io.Writer {
	if path == "" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
