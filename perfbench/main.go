// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget from a seed, checks the workload's outputs, and
// prints one JSON result line:
//
//	perfbench -workload paper-grid -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics on the plain public paths
// (hybridsched.RunSweep, sim.Engine.Step/Submit, the schedd HTTP API). With
// -trace 1 it first repeats that untraced run, then for a second budget
// builds and steps the engines itself with every call into a module timed
// from outside, and prints the per-layer metrics plus the tracing overhead.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// config is what every workload receives.
type config struct {
	seed     int64
	budget   time.Duration // wall time the timed region should fill
	buildDir string        // scratch space inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one run of a workload produced.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	jobsPerSec        float64 // the run's jobs_per_s, for the tracing overhead
	digest            string  // CSV digest of a replaying workload's reports
	gc                gcStats // the collector's work during the timed region
}

// benchWorkload is one named benchmark input set with its untraced
// (end-to-end) and traced (per-layer) runs. Either returns an error when the
// workload's output check fails or the run cannot complete.
type benchWorkload struct {
	run   func(config) (outcome, error)
	trace func(config) (outcome, error)
	// serial runs the workload on one P (GOMAXPROCS=1). Its engines step
	// sequentially (a sweep runs on one worker), so the collector's work then
	// counts in their wall time instead of running beside them on another
	// core, and a change that allocates less shows in jobs_per_s.
	serial bool
}

var workloads = map[string]benchWorkload{
	"paper-grid":    {run: runGrid, trace: traceGrid, serial: true},
	"stream-ingest": {run: runStream, trace: traceStream, serial: true},
	"schedd-online": {run: runSchedd, trace: traceSchedd},
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed       = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", 10, "wall-clock budget of the timed region")
		trace      = flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end ones")
		buildDir   = flag.String("build-dir", ".bench_build", "scratch directory inside the checkout")
		cpuprofile = flag.String("cpuprofile", "", "with -trace 1, write a CPU profile of the traced run here")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if w.serial {
		runtime.GOMAXPROCS(1)
	}
	cfg := config{
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		buildDir: *buildDir,
	}

	var out outcome
	if *trace == 0 {
		out, err = w.run(cfg)
		if err == nil {
			err = spec.checkEndToEnd(out.metrics)
		}
	} else {
		out, err = runTraced(w, cfg, *cpuprofile)
		if err == nil {
			err = spec.fillPerLayer(out.metrics)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		emit(result{Correct: false, Attempted: max(out.attempted, 1), Failed: max(out.failed, 1), Metrics: metricSet{}})
		os.Exit(1)
	}
	emit(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if out.failed > 0 {
		os.Exit(1)
	}
}

// runTraced measures the untraced path, then the traced path, each for the
// full budget, and reports the traced run's per-layer metrics with the
// throughput the tracing cost.
func runTraced(w benchWorkload, cfg config, cpuprofile string) (outcome, error) {
	plain, err := w.run(cfg)
	if err != nil {
		return plain, fmt.Errorf("untraced run: %w", err)
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return outcome{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return outcome{}, err
		}
		defer pprof.StopCPUProfile()
	}
	traced, err := w.trace(cfg)
	if err != nil {
		return traced, err
	}
	if traced.digest != plain.digest {
		return traced, fmt.Errorf("traced run wrote CSV digest %s, untraced %s", traced.digest, plain.digest)
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	if plain.jobsPerSec > 0 {
		traced.metrics.set("harness.trace_overhead_pct", 100*(1-traced.jobsPerSec/plain.jobsPerSec), "%")
	}
	return traced, nil
}

func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// benchSpec is the part of BENCHMARK.json the harness checks its output
// against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// checkEndToEnd requires every end-to-end metric, in its declared unit and
// nonzero, and nothing else.
func (s benchSpec) checkEndToEnd(m metricSet) error {
	var errs []error
	for _, want := range s.EndToEnd {
		got, ok := m[want.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", want.Name))
		case got.Unit != want.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, declared %s", want.Name, got.Unit, want.Unit))
		case got.Value == 0:
			errs = append(errs, fmt.Errorf("metric %s is zero", want.Name))
		}
	}
	if len(m) != len(s.EndToEnd) {
		errs = append(errs, fmt.Errorf("%d metrics measured, %d declared", len(m), len(s.EndToEnd)))
	}
	return errors.Join(errs...)
}

// fillPerLayer reports every declared per-layer metric: a layer the workload
// does not exercise reads zero. A measured metric the spec does not declare,
// or one in another unit, is a harness bug.
func (s benchSpec) fillPerLayer(m metricSet) error {
	declared := make(map[string]string, len(s.PerLayer))
	for _, d := range s.PerLayer {
		declared[d.Name] = d.Unit
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, 0, d.Unit)
		}
	}
	var errs []error
	for name, got := range m {
		if unit, ok := declared[name]; !ok {
			errs = append(errs, fmt.Errorf("per-layer metric %s not declared", name))
		} else if unit != got.Unit {
			errs = append(errs, fmt.Errorf("per-layer metric %s in %s, declared %s", name, got.Unit, unit))
		}
	}
	return errors.Join(errs...)
}
