// Command hybridsim replays a job trace under one scheduling mechanism and
// prints the paper's evaluation metrics (§IV-D): per-class turnaround,
// on-demand instant-start rates, preemption ratios, and the node-second
// utilization ledger. With -mechs/-seeds it becomes a sweep: the grid of
// (mechanism × seed) cells runs in parallel through the sweep runner with
// deterministic, grid-ordered output.
//
// Usage:
//
//	hybridsim -trace trace.csv -mech CUA\&SPAA
//	hybridsim -seed 1 -weeks 4 -mech N\&PAA             # generate on the fly
//	hybridsim -trace jobs.swf -format swf -mech baseline
//	hybridsim -mechs all -seeds 3 -workers 8 -out csv   # parallel sweep
//	hybridsim -source 'swf:theta.swf|relabel:paper|scale:1.2' -mechs all
//	hybridsim -mtbf 6h -repair 1h -mechs all            # degraded capacity
//	hybridsim -drain '24h+4h:512' -mech baseline        # maintenance window
//	hybridsim -mechs all -out csv -checkpoint ckpt/     # resumable sweep
//	hybridsim -mechs all -out csv -restore ckpt/        # continue after a kill
//	hybridsim -mechs all -q -cpuprofile cpu.prof        # profile the run
//
// -mtbf injects node failures at the given system MTBF (each strikes one
// uniformly random node, interrupting whatever holds it); -repair keeps the
// failed node out of service for a drawn repair time (0 = instant repair);
// -drain schedules maintenance windows that absorb free capacity between
// start and start+duration. All three apply to every workload, and fault
// telemetry lands in the failures / failure_misses / unavailable_frac output
// columns.
//
// -source accepts the source-spec grammar (csv:/swf:/synthetic: heads,
// relabel/scale/shift/limit/filter transforms, '+' merges); the named
// workload replaces synthetic generation and is materialized once no matter
// how many mechanisms replay it. -trace PATH is shorthand for the source spec
// csv:PATH (or swf:PATH with -format swf). Every workload runs through the
// sweep runner, so -mechs, -workers, -out and -checkpoint/-restore apply to
// all of them.
//
// -cpuprofile FILE writes a CPU profile of the whole command to FILE, for
// go tool pprof; it is stopped and the file closed on every exit path.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"hybridsched"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace file, run as the source spec csv:PATH or swf:PATH (empty: generate synthetically)")
		srcSpec   = flag.String("source", "", "workload source spec, e.g. 'swf:theta.swf|relabel:paper|scale:1.2' (replaces generation; -seed/-seeds/-weeks/-mix ignored)")
		format    = flag.String("format", "csv", "-trace format: csv or swf")
		mech      = flag.String("mech", "CUA&SPAA", "scheduler: baseline, the six paper mechanisms (e.g. CUA&SPAA), or a registered name")
		mechs     = flag.String("mechs", "", "sweep schedulers: comma-separated names or \"all\" (overrides -mech)")
		pol       = flag.String("policy", "fcfs", "queue policy: fcfs, sjf, ljf, wfp3, or a registered name")
		nodes     = flag.Int("nodes", 4392, "system size in nodes")
		seed      = flag.Int64("seed", 1, "first workload seed when generating")
		seeds     = flag.Int("seeds", 1, "seeds per mechanism when generating (sweep mode)")
		weeks     = flag.Int("weeks", 4, "workload weeks when generating")
		mixName   = flag.String("mix", "W5", "notice mix W1..W5 when generating")
		ckptMult  = flag.Float64("ckpt", 1.0, "checkpoint interval multiplier around the Daly optimum (0.5 = twice as frequent; 0 or less = no checkpointing)")
		bfres     = flag.Bool("backfill-reserved", false, "backfill jobs onto reserved nodes (evicted on arrival)")
		noReturn  = flag.Bool("no-directed-return", false, "drop returned lease nodes into the common pool")
		mtbf      = flag.Duration("mtbf", 0, "inject node failures at this system MTBF, e.g. 6h (0 = no injection; also drives the Daly checkpoint plans)")
		repair    = flag.Duration("repair", 0, "mean node repair time, e.g. 1h (0 = instant repair: capacity never shrinks)")
		drain     = flag.String("drain", "", "maintenance windows 'start+duration:nodes', e.g. '24h+4h:512,96h+2h:256'")
		workers   = flag.Int("workers", 0, "parallel sweep workers (0 = all CPU cores)")
		out       = flag.String("out", "text", "output format: text, json, csv")
		quiet     = flag.Bool("q", false, "suppress sweep progress messages")
		ckptDir   = flag.String("checkpoint", "", "persist per-cell sweep progress (snapshots + finished reports) into this directory; a killed sweep resumes with -restore")
		ckptEvery = flag.Int("checkpoint-every", 0, "simulation events between cell snapshots (0 = default)")
		resumeDir = flag.String("restore", "", "resume a sweep from this checkpoint directory: finished cells are skipped, interrupted cells continue from their snapshots (implies -checkpoint into it)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		startProfile(*cpuprof)
		defer stopProfile()
	}

	if *seeds < 1 {
		fatal(fmt.Errorf("-seeds must be >= 1, got %d", *seeds))
	}
	switch *out {
	case "text", "json", "csv":
	default:
		fatal(fmt.Errorf("unknown output format %q (want text, json, or csv)", *out))
	}
	if *format != "csv" && *format != "swf" {
		fatalUsage(fmt.Errorf("unknown trace format %q (want csv or swf)", *format))
	}
	mechList := []string{*mech}
	if *mechs != "" {
		if *mechs == "all" {
			mechList = hybridsched.Mechanisms()
		} else {
			mechList = strings.Split(*mechs, ",")
			for i := range mechList {
				mechList[i] = strings.TrimSpace(mechList[i])
				if mechList[i] == "" {
					fatalUsage(fmt.Errorf("empty mechanism name in -mechs %q", *mechs))
				}
			}
		}
	}
	// Validate scheduler and policy names against the registries up front: a
	// bad name must not cost a full trace generation before erroring.
	validMechs := hybridsched.SchedulerNames()
	for _, m := range mechList {
		if !slices.Contains(validMechs, m) {
			fatalUsage(fmt.Errorf("unknown scheduler %q (valid: %s)",
				m, strings.Join(validMechs, ", ")))
		}
	}
	if validPols := hybridsched.PolicyNames(); !slices.Contains(validPols, *pol) {
		fatalUsage(fmt.Errorf("unknown policy %q (valid: %s)",
			*pol, strings.Join(validPols, ", ")))
	}
	if *mtbf < 0 || *repair < 0 {
		fatalUsage(fmt.Errorf("-mtbf and -repair must be non-negative"))
	}
	if *repair > 0 && *mtbf == 0 {
		fatalUsage(fmt.Errorf("-repair requires -mtbf (no failures to repair)"))
	}
	if *ckptMult <= 0 {
		// SimulationConfig reads a zero multiplier as "use the default";
		// a negative one is its explicit zero.
		*ckptMult = -1
	}
	drains, err := hybridsched.ParseDrains(*drain)
	if err != nil {
		fatalUsage(err)
	}
	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			fatalUsage(fmt.Errorf("-checkpoint %q and -restore %q name different directories", *ckptDir, *resumeDir))
		}
		*ckptDir = *resumeDir
	}
	sweepOpt := hybridsched.SweepOptions{
		Workers:         *workers,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Resume:          *resumeDir != "",
	}
	simCfg := func(m string) hybridsched.SimulationConfig {
		cfg := hybridsched.SimulationConfig{
			Nodes:              *nodes,
			Mechanism:          m,
			Policy:             *pol,
			CheckpointFreqMult: *ckptMult,
			BackfillReserved:   *bfres,
			NoDirectedReturn:   *noReturn,
		}
		if *mtbf > 0 {
			// Checkpoint for the failure rate actually injected.
			cfg.MTBF = mtbf.Seconds()
		}
		return cfg
	}
	fillResilience := func(sp *hybridsched.SweepSpec) {
		sp.FaultMTBF = mtbf.Seconds()
		sp.FaultMeanRepair = repair.Seconds()
		sp.Drains = drains
	}

	// A trace file is the source spec that reads it.
	if *tracePath != "" {
		if *srcSpec != "" {
			fatalUsage(fmt.Errorf("-source and -trace are mutually exclusive"))
		}
		if strings.ContainsAny(*tracePath, "|+") {
			fatalUsage(fmt.Errorf("-trace path %q contains '|' or '+', which source specs reserve", *tracePath))
		}
		*srcSpec = *format + ":" + *tracePath
	}

	// A source spec runs through the sweep runner: one cell per mechanism,
	// all sharing a single materialization of the spec.
	if *srcSpec != "" {
		// Parse now so a typo costs nothing (file heads also open here).
		if _, err := hybridsched.ParseSource(*srcSpec); err != nil {
			fatalUsage(err)
		}
		if *tracePath != "" && *format == "swf" {
			swfSummary(*tracePath)
		}
		var specs []hybridsched.SweepSpec
		for _, m := range mechList {
			sp := hybridsched.SweepSpec{
				Label:  m,
				Source: *srcSpec,
				Sim:    simCfg(m),
			}
			fillResilience(&sp)
			specs = append(specs, sp)
		}
		runSweep(specs, sweepOpt, *out, *pol, *quiet)
		return
	}

	mix, err := hybridsched.MixByName(*mixName)
	if err != nil {
		fatal(err)
	}
	var specs []hybridsched.SweepSpec
	for _, m := range mechList {
		for s := 0; s < *seeds; s++ {
			sp := hybridsched.SweepSpec{
				Label: m,
				Workload: hybridsched.WorkloadConfig{
					Seed: *seed + int64(s), Weeks: *weeks, Nodes: *nodes, Mix: mix,
				},
				Sim: simCfg(m),
			}
			fillResilience(&sp)
			specs = append(specs, sp)
		}
	}
	runSweep(specs, sweepOpt, *out, *pol, *quiet)
}

// runSweep executes the grid and emits it in the requested format.
func runSweep(specs []hybridsched.SweepSpec, opt hybridsched.SweepOptions, out, pol string, quiet bool) {
	if !quiet && len(specs) > 1 {
		opt.Progress = os.Stderr
	}
	report, err := hybridsched.RunSweep(specs, opt)
	if err != nil {
		fatal(err)
	}
	switch out {
	case "json":
		err = report.WriteJSON(os.Stdout)
	case "csv":
		err = report.WriteCSV(os.Stdout)
	case "text":
		for i, res := range report.Results {
			if i > 0 {
				fmt.Println()
			}
			printReport(res.Spec.Label, pol, res.Report)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// swfSummary reads an SWF trace once up front to print its import summary:
// every SWF job arrives rigid, and the defaulted fields deserve a mention
// rather than silence.
func swfSummary(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	_, sum, err := hybridsched.ReadSWFSummary(f)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hybridsim: swf import: %s\n", sum)
}

// printReport writes the single-run metrics block.
func printReport(mech, pol string, rep hybridsched.Report) {
	fmt.Printf("mechanism           %s (policy %s)\n", mech, pol)
	fmt.Printf("jobs                %d (rigid %d, on-demand %d, malleable %d)\n",
		rep.Jobs, rep.Rigid.Count, rep.OnDemand.Count, rep.Malleable.Count)
	fmt.Printf("makespan            %s\n", hybridsched.FormatDuration(rep.Makespan))
	fmt.Printf("avg turnaround      %.1f h (rigid %.1f, on-demand %.1f, malleable %.1f)\n",
		rep.All.MeanTurnaroundH, rep.Rigid.MeanTurnaroundH,
		rep.OnDemand.MeanTurnaroundH, rep.Malleable.MeanTurnaroundH)
	fmt.Printf("system utilization  %.2f%%\n", 100*rep.Utilization)
	fmt.Printf("  useful %.2f%%  setup %.2f%%  ckpt %.2f%%  lost %.2f%%  reserved-idle %.2f%%  idle %.2f%%\n",
		100*rep.Breakdown.Useful, 100*rep.Breakdown.Setup, 100*rep.Breakdown.Ckpt,
		100*rep.Breakdown.Lost, 100*rep.Breakdown.ReservedIdle, 100*rep.Breakdown.Idle)
	fmt.Printf("instant start       %.2f%% (strict zero-delay %.2f%%, mean delay %.0fs)\n",
		100*rep.InstantStartRate, 100*rep.StrictInstantStartRate, rep.MeanStartDelay)
	fmt.Printf("preemption ratio    rigid %.2f%%  malleable %.2f%%\n",
		100*rep.Rigid.PreemptRatio, 100*rep.Malleable.PreemptRatio)
	if rep.FailuresInjected+rep.FailureMisses > 0 || rep.DownNodeSeconds > 0 {
		fmt.Printf("availability        %d failures struck, %d missed; unavailable %.2f%% (%s node-downtime)\n",
			rep.FailuresInjected, rep.FailureMisses,
			100*rep.Breakdown.Unavailable, hybridsched.FormatDuration(rep.DownNodeSeconds))
	}
	if rep.DecisionCount > 0 {
		fmt.Printf("decision latency    mean %.4f ms, max %.4f ms over %d decisions\n",
			rep.MeanDecisionMs, rep.MaxDecisionMs, rep.DecisionCount)
	}
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
	fmt.Fprintln(os.Stderr, "hybridsim:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits 2, the conventional
// usage-error status, before any expensive work has been done.
func fatalUsage(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "hybridsim:", err)
	os.Exit(2)
}
