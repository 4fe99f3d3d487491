package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"hybridsched"
	"hybridsched/internal/metrics"
	"hybridsched/internal/runner"
	"hybridsched/internal/simtime"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// The paper grid: every scheduler over the Table III notice mixes W1..W5,
// gridSeeds traces each, on 4,392-node Theta over four weeks; the W5 column
// runs again under node failures and one maintenance drain.
const (
	gridNodes       = 4392
	gridWeeks       = 4
	gridSeeds       = 10
	gridFaultMTBF   = 6 * 3600
	gridFaultRepair = 3600
	gridDrains      = "48h+4h:256"
	gridSetups      = 31 // set-ups per run
)

var gridMixes = []string{"W1", "W2", "W3", "W4", "W5"}

// gridDigests are the sha256 digests of the grid CSV for the default seed,
// recorded from a verified run.
var gridDigests = map[int64]string{
	1: "5ee04041a60ac8752c643c9273afa58bafacc482a583cd70e78e3abeaf8defc3",
}

// gridSeed is the workload seed of the s-th trace (0-based) of a run.
func gridSeed(seed int64, s int) int64 { return 1000*seed + int64(s) + 1 }

// gridSpecs builds the grid the way hybridsim -mechs all -seeds 10 -out csv
// builds one mix, for every mix, plus the faulted W5 column.
func gridSpecs(seed int64) ([]hybridsched.SweepSpec, error) {
	drains, err := hybridsched.ParseDrains(gridDrains)
	if err != nil {
		return nil, err
	}
	var specs []hybridsched.SweepSpec
	add := func(label, mixName string, faulted bool) error {
		mix, err := hybridsched.MixByName(mixName)
		if err != nil {
			return err
		}
		for _, mech := range hybridsched.Mechanisms() {
			for s := 0; s < gridSeeds; s++ {
				sp := hybridsched.SweepSpec{
					Label: label,
					Workload: hybridsched.WorkloadConfig{
						Seed: gridSeed(seed, s), Weeks: gridWeeks, Nodes: gridNodes, Mix: mix,
					},
					Sim: hybridsched.SimulationConfig{Nodes: gridNodes, Mechanism: mech, Policy: "fcfs"},
				}
				if faulted {
					sp.Sim.MTBF = gridFaultMTBF
					sp.FaultMTBF = gridFaultMTBF
					sp.FaultMeanRepair = gridFaultRepair
					sp.Drains = drains
				}
				specs = append(specs, sp)
			}
		}
		return nil
	}
	for _, mix := range gridMixes {
		if err := add(mix, mix, false); err != nil {
			return nil, err
		}
	}
	if err := add("W5+faults", "W5", true); err != nil {
		return nil, err
	}
	return specs, nil
}

// gridSetup is the grid's set-up: it resolves the grid's specs, then
// generates the first column's trace and builds that column's engines the way
// the sweep runner builds its cells. It returns the specs.
func gridSetup(seed int64) ([]hybridsched.SweepSpec, error) {
	specs, err := gridSpecs(seed)
	if err != nil {
		return nil, err
	}
	col := gridColumns(specs)[0]
	recs, err := workload.Generate(col.cfg)
	if err != nil {
		return nil, err
	}
	for _, i := range col.cells {
		if _, err := buildEngine(gridCell(specs[i]), recs); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// traceKey identifies a grid trace: every other generator knob is shared.
type traceKey struct {
	seed int64
	mix  workload.NoticeMix
}

func keyOf(sp hybridsched.SweepSpec) traceKey { return traceKey{sp.Workload.Seed, sp.Workload.Mix} }

// gridTraceLens generates each distinct trace of the grid once and returns
// its length.
func gridTraceLens(specs []hybridsched.SweepSpec) (map[traceKey]int, error) {
	lens := map[traceKey]int{}
	for _, sp := range specs {
		if _, ok := lens[keyOf(sp)]; ok {
			continue
		}
		recs, err := hybridsched.GenerateWorkload(sp.Workload)
		if err != nil {
			return nil, err
		}
		lens[keyOf(sp)] = len(recs)
	}
	return lens, nil
}

// checkCells requires every cell to have succeeded and completed every job of
// its trace.
func checkCells(specs []hybridsched.SweepSpec, jobs []int, errs []string, lens map[traceKey]int) (failed int, err error) {
	var bad []string
	for i, sp := range specs {
		switch {
		case errs[i] != "":
			bad = append(bad, fmt.Sprintf("cell %d (%s %s seed %d): %s", i, sp.Label, sp.Sim.Mechanism, sp.Workload.Seed, errs[i]))
		case jobs[i] != lens[keyOf(sp)]:
			bad = append(bad, fmt.Sprintf("cell %d (%s %s seed %d): %d of %d jobs completed",
				i, sp.Label, sp.Sim.Mechanism, sp.Workload.Seed, jobs[i], lens[keyOf(sp)]))
		}
	}
	if len(bad) > 0 {
		return len(bad), fmt.Errorf("paper-grid: %d bad cells, first: %s", len(bad), bad[0])
	}
	return 0, nil
}

// checkDigest compares a run's CSV digest with the one recorded for its seed.
func checkDigest(what string, seed int64, got string, recorded map[int64]string) error {
	fmt.Printf("%s: seed %d CSV digest %s\n", what, seed, got)
	if want, ok := recorded[seed]; ok && want != "" && got != want {
		return fmt.Errorf("%s: CSV digest %s, recorded %s", what, got, want)
	}
	return nil
}

// progressClock receives the sweep runner's progress lines and records, for
// every finished cell, the wall time since the sweep started.
type progressClock struct {
	mu    sync.Mutex
	start time.Time
	lat   *samples
}

func (p *progressClock) Write(b []byte) (int, error) {
	if strings.HasPrefix(string(b), "runner: [") {
		p.mu.Lock()
		p.lat.add(time.Since(p.start))
		p.mu.Unlock()
	}
	return len(b), nil
}

// gridSweeps splits the grid into its mix sweeps (W1..W5, W5+faults), in
// grid order: each is one hybridsim -mechs all -seeds 10 -out csv run.
func gridSweeps(specs []hybridsched.SweepSpec) [][]hybridsched.SweepSpec {
	var sweeps [][]hybridsched.SweepSpec
	for i, sp := range specs {
		if i == 0 || sp.Label != specs[i-1].Label {
			sweeps = append(sweeps, nil)
		}
		sweeps[len(sweeps)-1] = append(sweeps[len(sweeps)-1], sp)
	}
	return sweeps
}

func runGrid(cfg config) (outcome, error) {
	out := outcome{metrics: metricSet{}}
	var setups samples
	var specs []hybridsched.SweepSpec
	for i := 0; i < gridSetups; i++ {
		t := time.Now()
		var err error
		if specs, err = gridSetup(cfg.seed); err != nil {
			return out, err
		}
		setups.add(time.Since(t))
	}
	sweeps := gridSweeps(specs)

	// Each round runs every mix sweep and writes its CSV; the round's CSVs,
	// concatenated, must hash alike in every round.
	units := make([]*repeated, len(sweeps))
	for i := range units {
		units[i] = &repeated{}
	}
	digest := ""
	var grids [][]int
	var gridErrs [][]string
	heap := startHeapMonitor()
	begin := time.Now()
	for len(grids) == 0 || time.Since(begin) < cfg.budget {
		h := sha256.New()
		var cells []int
		var errs []string
		for i, sw := range sweeps {
			lat := &samples{}
			clock := &progressClock{start: time.Now(), lat: lat}
			// A failed cell is also in its result, which checkCells reports.
			rep, _ := hybridsched.RunSweep(sw, hybridsched.SweepOptions{Workers: 1, Progress: clock})
			if err := rep.WriteCSV(h); err != nil {
				return out, err
			}
			wall := time.Since(clock.start)
			jobs := 0
			for _, r := range rep.Results {
				cells, errs = append(cells, r.Report.Jobs), append(errs, r.Err)
				jobs += r.Report.Jobs
			}
			if err := units[i].add(wall, jobs, lat); err != nil {
				return out, fmt.Errorf("paper-grid %s: %w", sw[0].Label, err)
			}
		}
		d := hex.EncodeToString(h.Sum(nil))
		if digest != "" && d != digest {
			return out, fmt.Errorf("paper-grid: round %d CSV digest %s differs from round 0 %s", len(grids), d, digest)
		}
		digest = d
		grids, gridErrs = append(grids, cells), append(gridErrs, errs)
	}
	gc := heap.finish()

	lens, err := gridTraceLens(specs)
	if err != nil {
		return out, err
	}
	for g := range grids {
		out.attempted += len(specs)
		failed, err := checkCells(specs, grids[g], gridErrs[g], lens)
		out.failed += failed
		if err != nil {
			return out, err
		}
	}
	if err := checkDigest("paper-grid", cfg.seed, digest, gridDigests); err != nil {
		return out, err
	}
	out.digest = digest
	out.metrics.set("setup_s", setups.median()/1e3, "s")
	out.metrics.set("peak_heap_mb", gc.peakMB, "MB")
	err = reportFastest(os.Stdout, out.metrics, units...)
	out.jobsPerSec = out.metrics["jobs_per_s"].Value
	return out, err
}

// gridDigest hashes the CSVs of the grid's mix sweeps, concatenated in grid
// order, as runGrid's rounds write them.
func gridDigest(results []runner.Result) (string, error) {
	h := sha256.New()
	for lo := 0; lo < len(results); {
		hi := lo + 1
		for hi < len(results) && results[hi].Spec.Variant == results[lo].Spec.Variant {
			hi++
		}
		if err := (runner.Sweep{Results: results[lo:hi]}).WriteCSV(h); err != nil {
			return "", err
		}
		lo = hi
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gridColumn is the cells sharing one generated trace.
type gridColumn struct {
	cfg   workload.Config
	cells []int // spec indices
}

// gridColumns groups the grid's cells by trace, in grid order.
func gridColumns(specs []hybridsched.SweepSpec) []gridColumn {
	var cols []gridColumn
	colOf := map[traceKey]int{}
	for i, sp := range specs {
		c, ok := colOf[keyOf(sp)]
		if !ok {
			c = len(cols)
			colOf[keyOf(sp)] = c
			cols = append(cols, gridColumn{cfg: workload.Config{
				Seed: sp.Workload.Seed, Nodes: sp.Workload.Nodes, Weeks: sp.Workload.Weeks, Mix: sp.Workload.Mix,
			}})
		}
		cols[c].cells = append(cols[c].cells, i)
	}
	return cols
}

// gridTrace accumulates the traced grid's per-layer timings.
type gridTrace struct {
	steps    stepTracer
	cells    samples
	generate time.Duration
	reports  time.Duration
	emit     time.Duration
}

// traceGrid runs the same grid with the harness building and stepping every
// engine itself: column by column it generates the trace and runs the
// column's cells the way the runner does, with every module call timed.
func traceGrid(cfg config) (outcome, error) {
	out := outcome{metrics: metricSet{}}
	specs, err := gridSpecs(cfg.seed)
	if err != nil {
		return out, err
	}
	cols := gridColumns(specs)
	var tr gridTrace
	var rounds repeated
	var region time.Duration
	digest := ""
	heap := startHeapMonitor()
	begin := time.Now()
	for len(rounds.walls) == 0 || time.Since(begin) < cfg.budget {
		t0 := time.Now()
		results := make([]runner.Result, len(specs))
		for _, col := range cols {
			if err := tr.column(specs, col, results); err != nil {
				return out, err
			}
		}
		t1 := time.Now()
		d, err := gridDigest(results)
		if err != nil {
			return out, err
		}
		tr.emit += time.Since(t1)
		wall := time.Since(t0)
		region += wall
		if digest != "" && d != digest {
			return out, fmt.Errorf("paper-grid traced: CSV digest %s differs from %s", d, digest)
		}
		digest = d
		out.attempted += len(specs)
		jobs := 0
		for _, r := range results {
			jobs += r.Report.Jobs
		}
		if err := rounds.add(wall, jobs, nil); err != nil {
			return out, fmt.Errorf("paper-grid traced: %w", err)
		}
	}
	gc := heap.finish()
	if err := checkDigest("paper-grid traced", cfg.seed, digest, gridDigests); err != nil {
		return out, err
	}
	out.digest = digest
	out.jobsPerSec = float64(rounds.jobs) / rounds.fastest[0].wall.Seconds()
	m := out.metrics
	tr.steps.report(m, region)
	m.set("workload.generate_ms", float64(tr.generate)/1e6, "ms")
	m.set("metrics.report_ms", float64(tr.reports)/1e6, "ms")
	m.set("runner.emit_ms", float64(tr.emit)/1e6, "ms")
	p50, _, _ := tr.cells.percentile(0.5)
	p90, _, _ := tr.cells.percentile(0.9)
	m.set("runner.cell_ms.p50", p50, "ms")
	m.set("runner.cell_ms.p90", p90, "ms")
	setGC(m, gc)
	return out, nil
}

// column generates one column's trace and runs its cells into results.
func (tr *gridTrace) column(specs []hybridsched.SweepSpec, col gridColumn, results []runner.Result) error {
	t := time.Now()
	recs, err := workload.Generate(col.cfg)
	if err != nil {
		return err
	}
	tr.generate += time.Since(t)
	for _, i := range col.cells {
		t := time.Now()
		rep, err := traceCell(specs[i], recs, &tr.steps, &tr.reports)
		if err != nil {
			return fmt.Errorf("paper-grid traced cell %d: %w", i, err)
		}
		tr.cells.add(time.Since(t))
		if rep.Jobs != len(recs) {
			return fmt.Errorf("paper-grid traced cell %d: %d of %d jobs completed", i, rep.Jobs, len(recs))
		}
		results[i] = gridResult(specs[i], rep)
	}
	return nil
}

// gridCell is the engine a grid cell resolves to in the sweep runner.
func gridCell(sp hybridsched.SweepSpec) cellSpec {
	c := cellSpec{mech: sp.Sim.Mechanism, nodes: sp.Sim.Nodes, mtbf: defaultMTBF}
	if sp.FaultMTBF > 0 {
		c.mtbf = sp.Sim.MTBF
		c.faultMTBF, c.faultRepair = sp.FaultMTBF, sp.FaultMeanRepair
		c.faultSeed = sp.Workload.Seed
		c.faultHorizon = int64(sp.Workload.Weeks+4) * simtime.Week
		c.drains = sp.Drains
	}
	return c
}

// traceCell builds one cell's engine as the runner would and steps it to
// completion.
func traceCell(sp hybridsched.SweepSpec, recs []trace.Record, st *stepTracer, reports *time.Duration) (metrics.Report, error) {
	e, err := buildEngine(gridCell(sp), recs)
	if err != nil {
		return metrics.Report{}, err
	}
	st.attach(e)
	if err := st.drain(e); err != nil {
		return metrics.Report{}, err
	}
	t := time.Now()
	rep := e.Report()
	*reports += time.Since(t)
	return rep, nil
}

// gridResult is the runner's result for a finished cell, with the resolved
// coordinates the CSV rows carry.
func gridResult(sp hybridsched.SweepSpec, rep metrics.Report) runner.Result {
	return runner.Result{
		Spec: runner.Spec{
			Group: "sweep", Variant: sp.Label, Mechanism: sp.Sim.Mechanism, Policy: sp.Sim.Policy,
			Nodes: sp.Sim.Nodes, Workload: workload.Config{Seed: sp.Workload.Seed},
			FaultMTBF: sp.FaultMTBF, FaultMeanRepair: sp.FaultMeanRepair,
		},
		Report: rep,
	}
}
