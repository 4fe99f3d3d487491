// Command expdriver regenerates the paper's tables and figures
// (Table I-III, Figures 3-7, the Observation-10 latency check, and the
// DESIGN.md ablations). Every simulation-backed experiment runs as a
// declarative grid through the parallel sweep runner, so adding -workers
// uses every core while producing output identical to a serial run.
//
// Usage:
//
//	expdriver                            # everything at paper scale (10 seeds)
//	expdriver -exp fig6 -seeds 3         # one experiment, reduced averaging
//	expdriver -exp fig6,fig7 -workers 8  # a selection, 8-way parallel
//	expdriver -format csv -o cells.csv   # averaged cells as CSV
//	expdriver -format json -o all.json   # result structs as JSON
//	expdriver -exp resilience -mtbf 6h,24h -repair 0,1h   # degraded capacity
//	expdriver -exp resilience -drain 24h+4h:512           # + maintenance window
//	expdriver -exp fig6 -resume ckpt/                     # resumable: rerun after a kill
//	                                                      # picks up where it stopped
//	expdriver -exp fig6 -seeds 2 -q -cpuprofile cpu.prof  # profile the run
//
// The csv form contains only deterministic metrics and is byte-identical for
// any -workers value; json serializes the full result structs, whose decision
// -latency fields are wall clock and so vary between runs and machines.
//
// -cpuprofile FILE writes a CPU profile of the whole command to FILE, for
// go tool pprof; it is stopped and the file closed on every exit path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"hybridsched"
	"hybridsched/internal/exp"
)

func main() {
	var (
		which = flag.String("exp", "all",
			"comma-separated experiments: all, tablei, tableii, tableiii, fig3, fig4, fig5, fig6, fig7, latency, ablations, resilience, realtrace (needs -source; not part of all)")
		seeds    = flag.Int("seeds", 10, "traces averaged per data point")
		weeks    = flag.Int("weeks", 4, "trace length in weeks")
		nodes    = flag.Int("nodes", 4392, "system size in nodes")
		baseSeed = flag.Int64("seed", 1, "first seed")
		srcSpec  = flag.String("source", "", "replay this source spec instead of synthetic traces, e.g. 'swf:theta.swf|relabel:paper' (collapses seed averaging to 1)")
		pol      = flag.String("policy", "fcfs", "queue policy: fcfs, sjf, ljf, wfp3, or a registered name")
		workers  = flag.Int("workers", 0, "parallel sweep workers (0 = all CPU cores)")
		format   = flag.String("format", "text", "output format: text, json, csv")
		out      = flag.String("o", "", "output file (default stdout)")
		quiet    = flag.Bool("q", false, "suppress progress messages")
		resume   = flag.String("resume", "", "persist per-cell progress into this directory and resume from whatever it already holds: finished cells are skipped, interrupted cells continue from their snapshots")
		shards   = flag.Int("shards", 0, "realtrace: hash-shard count for the shard axis (0 = default 4, 1 = whole trace only)")
		mtbfs    = flag.String("mtbf", "", "resilience failure-MTBF axis: comma-separated durations, e.g. '6h,24h' (default 6h,24h)")
		repairs  = flag.String("repair", "", "resilience mean-repair axis: comma-separated durations, '0' = instant (default 0,1h)")
		drains   = flag.String("drain", "", "maintenance windows applied to every resilience cell: 'start+duration:nodes', e.g. '24h+4h:512,96h+2h:256'")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		startProfile(*cpuprof)
		defer stopProfile()
	}

	// Validate the policy against the registry before any experiment runs:
	// a bad name must not cost a paper-scale sweep before erroring.
	if validPols := hybridsched.PolicyNames(); !slices.Contains(validPols, *pol) {
		fatalUsage(fmt.Errorf("unknown policy %q (valid: %s)", *pol, strings.Join(validPols, ", ")))
	}
	// Same for the source spec: parse errors and missing files must surface
	// before any trace is generated or cell simulated.
	if *srcSpec != "" {
		if _, err := hybridsched.ParseSource(*srcSpec); err != nil {
			fatalUsage(err)
		}
	}

	// Resilience axes parse before anything runs — like the policy and source
	// validations above, and before the output file is created, so a typo in
	// a flag cannot truncate an existing results file.
	faultMTBFs, err := parseDurationList(*mtbfs)
	if err != nil {
		fatalUsage(fmt.Errorf("-mtbf: %w", err))
	}
	faultRepairs, err := parseDurationList(*repairs)
	if err != nil {
		fatalUsage(fmt.Errorf("-repair: %w", err))
	}
	for _, m := range faultMTBFs {
		if m <= 0 {
			fatalUsage(fmt.Errorf("-mtbf values must be positive, got %gs", m))
		}
	}
	for _, r := range faultRepairs {
		if r < 0 {
			fatalUsage(fmt.Errorf("-repair values must be non-negative, got %gs", r))
		}
	}
	drainSpecs, err := hybridsched.ParseDrains(*drains)
	if err != nil {
		fatalUsage(fmt.Errorf("-drain: %w", err))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	opt := exp.Options{
		Nodes:         *nodes,
		Weeks:         *weeks,
		Seeds:         *seeds,
		BaseSeed:      *baseSeed,
		Policy:        *pol,
		Workers:       *workers,
		Source:        *srcSpec,
		FaultMTBFs:    faultMTBFs,
		FaultRepairs:  faultRepairs,
		Drains:        drainSpecs,
		Shards:        *shards,
		CheckpointDir: *resume,
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	switch *format {
	case "text", "json", "csv":
	default:
		fatal(fmt.Errorf("unknown format %q (want text, json, or csv)", *format))
	}
	known := []string{"all", "tablei", "fig3", "fig4", "fig5",
		"tableii", "tableiii", "fig6", "fig7", "latency", "ablations", "resilience", "realtrace"}
	selected := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(known, name) {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(known, ", ")))
		}
		selected[name] = true
	}

	d := &driver{w: w, format: *format, selected: selected}
	start := time.Now()

	d.run("tablei", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.TableI(opt)
		return r, nil, err
	})
	d.run("fig3", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure3(opt)
		return r, nil, err
	})
	d.run("fig4", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure4(opt)
		return r, nil, err
	})
	d.run("fig5", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure5(opt)
		return r, nil, err
	})
	d.run("tableii", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.TableII(opt)
		return r, []exp.CellGroup{{Experiment: "tableii", Cells: r.Flatten()}}, err
	})
	d.run("tableiii", func() (renderer, []exp.CellGroup, error) {
		return exp.TableIII(), nil, nil
	})
	d.run("fig6", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure6(opt)
		return r, []exp.CellGroup{{Experiment: "fig6", Cells: r.Flatten()}}, err
	})
	d.run("fig7", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Figure7(opt)
		return r, []exp.CellGroup{{Experiment: "fig7", Cells: r.Flatten()}}, err
	})
	d.run("latency", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.DecisionLatency(opt)
		return r, []exp.CellGroup{{Experiment: "latency", Cells: r.Flatten()}}, err
	})
	d.run("resilience", func() (renderer, []exp.CellGroup, error) {
		r, err := exp.Resilience(opt)
		return r, []exp.CellGroup{{Experiment: "resilience", Cells: r.Flatten()}}, err
	})
	// realtrace needs -source, so it never rides along with "all".
	if d.selected["realtrace"] {
		d.run("realtrace", func() (renderer, []exp.CellGroup, error) {
			r, err := exp.RealTrace(opt)
			return r, []exp.CellGroup{{Experiment: "realtrace", Cells: r.Flatten()}}, err
		})
	}
	d.run("ablations", func() (renderer, []exp.CellGroup, error) {
		ablations := []struct {
			name string
			fn   func(exp.Options) (exp.AblationResult, error)
		}{
			{"ablation-bfres", exp.AblationBackfillReserved},
			{"ablation-return", exp.AblationDirectedReturn},
			{"ablation-minsize", exp.AblationMinSizeFraction},
			{"ablation-lead", exp.AblationNoticeLead},
			{"ablation-policy", exp.AblationQueuePolicy},
		}
		var rs multiRender
		var groups []exp.CellGroup
		for _, a := range ablations {
			r, err := a.fn(opt)
			if err != nil {
				return nil, nil, err
			}
			rs = append(rs, r)
			groups = append(groups, exp.CellGroup{Experiment: a.name, Cells: r.Flatten()})
		}
		return rs, groups, nil
	})

	if err := d.finish(); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "expdriver: total %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// renderer is the common face of every experiment result.
type renderer interface{ Render(io.Writer) }

// multiRender renders several results in sequence (the ablation bundle).
type multiRender []renderer

func (m multiRender) Render(w io.Writer) {
	for i, r := range m {
		if i > 0 {
			fmt.Fprintln(w)
		}
		r.Render(w)
	}
}

// driver runs selected experiments and accumulates output in the requested
// format: text renders immediately; json and csv collect and emit at finish.
type driver struct {
	w        io.Writer
	format   string
	selected map[string]bool

	jsonOut []jsonEntry
	csvOut  []exp.CellGroup
}

type jsonEntry struct {
	Experiment string `json:"experiment"`
	Result     any    `json:"result"`
}

// cellLess names the experiments with no averaged-cell form; csv mode skips
// them before paying for their (potentially paper-scale) runs.
var cellLess = map[string]bool{
	"tablei": true, "fig3": true, "fig4": true, "fig5": true, "tableiii": true,
}

func (d *driver) run(name string, fn func() (renderer, []exp.CellGroup, error)) {
	if !d.selected["all"] && !d.selected[name] {
		return
	}
	if d.format == "csv" && cellLess[name] {
		fmt.Fprintf(os.Stderr, "expdriver: %s has no cell form, skipped in csv output\n", name)
		return
	}
	r, groups, err := fn()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	switch d.format {
	case "text":
		fmt.Fprintln(d.w)
		r.Render(d.w)
	case "json":
		if m, ok := r.(multiRender); ok {
			// Ablations serialize one entry per sweep, named like their CSV groups.
			for i, sub := range m {
				d.jsonOut = append(d.jsonOut, jsonEntry{Experiment: d.csvNameFor(groups, i), Result: sub})
			}
		} else {
			d.jsonOut = append(d.jsonOut, jsonEntry{Experiment: name, Result: r})
		}
	case "csv":
		d.csvOut = append(d.csvOut, groups...)
	}
}

func (d *driver) csvNameFor(groups []exp.CellGroup, i int) string {
	if i < len(groups) {
		return groups[i].Experiment
	}
	return fmt.Sprintf("ablation-%d", i)
}

func (d *driver) finish() error {
	switch d.format {
	case "json":
		enc := json.NewEncoder(d.w)
		enc.SetIndent("", "  ")
		return enc.Encode(d.jsonOut)
	case "csv":
		return exp.WriteCellsCSV(d.w, d.csvOut...)
	}
	return nil
}

// parseDurationList parses comma-separated Go durations ("6h,24h") into
// seconds. An empty string yields nil (the experiment's defaults apply).
func parseDurationList(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// stopProfile stops the -cpuprofile profile and closes its file; it is a
// no-op when none runs. fatal and fatalUsage call it before they exit.
var stopProfile = func() {}

// startProfile starts a CPU profile into path.
func startProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
	stopProfile = func() {
		stopProfile = func() {}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "expdriver:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits 2, the conventional
// usage-error status, before any expensive work has been done.
func fatalUsage(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "expdriver:", err)
	os.Exit(2)
}
