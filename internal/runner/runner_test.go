package runner

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hybridsched/internal/core"
	"hybridsched/internal/job"
	"hybridsched/internal/simtest"
	"hybridsched/internal/simtime"
	"hybridsched/internal/source"
	"hybridsched/internal/trace"
	"hybridsched/internal/workload"
)

// tinyGrid builds a small but real mechanism × seed grid (512 nodes, 1 week)
// that exercises trace sharing: every mechanism of one seed replays the same
// generated trace.
func tinyGrid(t testing.TB) []Spec {
	t.Helper()
	var specs []Spec
	for _, mech := range []string{"baseline", "N&PAA", "CUA&SPAA", "CUP&SPAA"} {
		for s := int64(1); s <= 2; s++ {
			specs = append(specs, Spec{
				Group:     "test",
				Variant:   "W5",
				Mechanism: mech,
				Nodes:     512,
				Workload: workload.Config{
					Seed: s, Nodes: 512, Weeks: 1,
					MinJobSize:  16,
					SizeBuckets: []int{16, 32, 64, 128},
					SizeWeights: []float64{0.4, 0.3, 0.2, 0.1},
				},
			})
		}
	}
	return specs
}

// serialize renders the sweep in both emitter formats for byte comparison.
func serialize(t *testing.T, s Sweep) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := s.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := tinyGrid(t)
	serial := Run(specs, Options{Workers: 1})
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	j1, c1 := serialize(t, serial)
	for _, workers := range []int{2, 8} {
		par := Run(specs, Options{Workers: workers})
		if err := par.Err(); err != nil {
			t.Fatal(err)
		}
		jN, cN := serialize(t, par)
		if jN != j1 {
			t.Fatalf("workers=%d JSON differs from workers=1", workers)
		}
		if cN != c1 {
			t.Fatalf("workers=%d CSV differs from workers=1", workers)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	specs := tinyGrid(t)[:4]
	runHook = func(s Spec) {
		if s.Mechanism == "N&PAA" {
			panic("injected cell crash")
		}
	}
	defer func() { runHook = nil }()
	sweep := Run(specs, Options{Workers: 4})
	if got := sweep.Failed(); got != 2 {
		t.Fatalf("failed cells = %d, want 2 (both N&PAA seeds)", got)
	}
	for _, res := range sweep.Results {
		if res.Spec.Mechanism == "N&PAA" {
			if !res.Failed() || !strings.Contains(res.Err, "injected cell crash") {
				t.Fatalf("panicking cell not captured: %+v", res.Err)
			}
		} else {
			if res.Failed() {
				t.Fatalf("healthy cell %s failed: %s", res.Spec.Key(), res.Err)
			}
			if res.Report.Jobs == 0 {
				t.Fatalf("healthy cell %s has empty report", res.Spec.Key())
			}
		}
	}
	if sweep.Err() == nil {
		t.Fatal("Err() must surface the first failed cell")
	}
}

func TestErrorIsolation(t *testing.T) {
	specs := tinyGrid(t)[:2]
	bad := specs[0]
	bad.Mechanism = "NOPE&NOPE"
	sweep := Run(append([]Spec{bad}, specs...), Options{Workers: 2})
	if sweep.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", sweep.Failed())
	}
	if !sweep.Results[0].Failed() {
		t.Fatal("unknown mechanism must fail its own cell")
	}
	if sweep.Results[1].Failed() || sweep.Results[2].Failed() {
		t.Fatal("healthy cells must complete despite a failing sibling")
	}
}

func TestTraceCacheSharesRecords(t *testing.T) {
	cache := newTraceCache()
	cfg := workload.Config{Seed: 7, Nodes: 512, Weeks: 1,
		MinJobSize:  16,
		SizeBuckets: []int{16, 64},
		SizeWeights: []float64{0.5, 0.5},
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.records(Spec{Workload: cfg}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	a, err := cache.records(Spec{Workload: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cache.records(Spec{Workload: cfg})
	if cache.gens != 1 {
		t.Fatalf("generator ran %d times for one config, want 1", cache.gens)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("cache must hand out the same shared record slice")
	}
	// A different seed is a different trace.
	cfg2 := cfg
	cfg2.Seed = 8
	if _, err := cache.records(Spec{Workload: cfg2}); err != nil {
		t.Fatal(err)
	}
	if cache.gens != 2 {
		t.Fatalf("generator ran %d times for two configs, want 2", cache.gens)
	}
}

func TestTraceCachePanicPoisonsEntry(t *testing.T) {
	// A generator panic must fail every cell sharing the trace, not hand
	// silent nil records to the siblings that arrive after the sync.Once.
	generate = func(workload.Config) ([]trace.Record, error) { panic("generator crash") }
	defer func() { generate = workload.Generate }()
	cache := newTraceCache()
	cfg := workload.Config{Seed: 7, Nodes: 512, Weeks: 1,
		MinJobSize:  16,
		SizeBuckets: []int{16, 64},
		SizeWeights: []float64{0.5, 0.5},
	}
	for i := 0; i < 2; i++ {
		recs, err := cache.records(Spec{Workload: cfg})
		if err == nil || !strings.Contains(err.Error(), "generator crash") || recs != nil {
			t.Fatalf("call %d: poisoned entry returned (%d records, %v), want generator-crash error", i, len(recs), err)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed("fig6", "W2", "CUA&SPAA")
	if a <= 0 {
		t.Fatalf("seed must be positive, got %d", a)
	}
	if b := DeriveSeed("fig6", "W2", "CUA&SPAA"); b != a {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	if b := DeriveSeed("fig6", "W2", "CUA&PAA"); b == a {
		t.Fatal("different coordinates must derive different seeds")
	}
	// The separator keeps part boundaries significant.
	if DeriveSeed("ab", "c") == DeriveSeed("a", "bc") {
		t.Fatal("part boundaries must matter")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Group: "g", Variant: "v"}.withDefaults()
	if s.Mechanism != "CUA&SPAA" || s.Policy != "fcfs" || s.Nodes != 4392 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if s.Workload.Seed == 0 {
		t.Fatal("zero seed must be derived from coordinates")
	}
	if s.Workload.Seed != DeriveSeed("g", "v", "CUA&SPAA") {
		t.Fatal("derived seed must come from the cell coordinates")
	}
	if s.MTBF == 0 || s.CkptFreqMult != 1.0 {
		t.Fatalf("knob defaults wrong: %+v", s)
	}
	// Workload.Nodes implies Spec.Nodes.
	s2 := Spec{Workload: workload.Config{Nodes: 512}}.withDefaults()
	if s2.Nodes != 512 {
		t.Fatalf("Nodes = %d, want 512 from workload config", s2.Nodes)
	}
}

func TestEmitters(t *testing.T) {
	specs := tinyGrid(t)[:2]
	sweep := Run(specs, Options{Workers: 2})
	if err := sweep.Err(); err != nil {
		t.Fatal(err)
	}
	j, c := serialize(t, sweep)
	if !strings.Contains(j, `"mechanism": "baseline"`) {
		t.Fatalf("JSON missing mechanism field:\n%s", j)
	}
	if strings.Contains(j, "elapsed") || strings.Contains(j, "decision") {
		t.Fatal("JSON must exclude wall-clock fields")
	}
	lines := strings.Split(strings.TrimSpace(c), "\n")
	if len(lines) != 1+len(specs) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(specs))
	}
	if !strings.HasPrefix(lines[0], "group,variant,mechanism,policy,seed,nodes") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	rows := sweep.Rows()
	if rows[0].Jobs == 0 || rows[0].Util <= 0 || rows[0].Util > 1 {
		t.Fatalf("row metrics wrong: %+v", rows[0])
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	sweep := Run(tinyGrid(t)[:2], Options{Workers: 2, Progress: &buf})
	if err := sweep.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[1/2]") || !strings.Contains(out, "[2/2]") {
		t.Fatalf("progress missing per-cell lines:\n%s", out)
	}
	if !strings.Contains(out, "2 cells (0 failed)") || !strings.Contains(out, "2 workers") {
		t.Fatalf("progress missing summary:\n%s", out)
	}
}

func TestEmptySweep(t *testing.T) {
	sweep := Run(nil, Options{Workers: 4})
	if len(sweep.Results) != 0 || sweep.Err() != nil || sweep.Failed() != 0 {
		t.Fatalf("empty sweep wrong: %+v", sweep)
	}
	var c bytes.Buffer
	if err := sweep.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.String(), "group,") {
		t.Fatal("empty CSV must still carry the header")
	}
}

// sourceGrid builds a grid whose cells share one source spec, so the spec
// must be materialized exactly once.
func sourceGrid() []Spec {
	const spec = "synthetic:seed=9,weeks=1,nodes=512|relabel:paper|scale:1.1"
	var specs []Spec
	for _, mech := range []string{"baseline", "N&PAA", "CUA&SPAA"} {
		specs = append(specs, Spec{
			Group:     "srctest",
			Variant:   "mix",
			Mechanism: mech,
			Nodes:     512,
			Source:    spec,
		})
	}
	return specs
}

func TestSourceSpecCellsShareOneMaterialization(t *testing.T) {
	specs := sourceGrid()
	cache := newTraceCache()
	for _, s := range specs {
		if _, err := cache.records(s.withDefaults()); err != nil {
			t.Fatal(err)
		}
	}
	if cache.gens != 1 {
		t.Fatalf("source spec materialized %d times for %d cells, want 1", cache.gens, len(specs))
	}
	// A different spec is a different trace.
	other := specs[0]
	other.Source = "synthetic:seed=10,weeks=1,nodes=512"
	if _, err := cache.records(other.withDefaults()); err != nil {
		t.Fatal(err)
	}
	if cache.gens != 2 {
		t.Fatalf("distinct specs share an entry: gens=%d", cache.gens)
	}
}

// badRecordOnce registers the bad-record sources once per test binary:
// registration is append-only, and -count reruns the test.
var (
	badRecordOnce sync.Once
	badRecordErr  error
)

// TestSourceCellRefusesBadRecord: a source record a session's Submit refuses
// — size 0, or a class outside rigid/on-demand/malleable — fails its sweep
// cell with an error naming the record, not a recovered panic.
func TestSourceCellRefusesBadRecord(t *testing.T) {
	cases := []struct {
		name string
		bad  func(*trace.Record)
		want string
	}{
		{"badrecsize", func(r *trace.Record) { r.Size = 0 }, "job 3: size 0 < 1"},
		{"badrecclass", func(r *trace.Record) { r.Class = 9 }, "job 3: unknown class"},
	}
	badRecordOnce.Do(func() {
		for _, c := range cases {
			var recs []trace.Record
			for id := 1; id <= 3; id++ {
				recs = append(recs, trace.Record{ID: id, Class: job.Rigid, Submit: int64(id),
					Size: 4, MinSize: 4, Work: 600, Estimate: 900, NoticeTime: int64(id)})
			}
			c.bad(&recs[2])
			if badRecordErr = source.Register(c.name, func(string) (source.Source, error) {
				return source.FromRecords(recs), nil
			}); badRecordErr != nil {
				return
			}
		}
	})
	if badRecordErr != nil {
		t.Fatal(badRecordErr)
	}
	for _, c := range cases {
		sweep := Run([]Spec{{Mechanism: "baseline", Nodes: 64, Source: c.name}}, Options{Workers: 1})
		if err := sweep.Results[0].Err; !strings.Contains(err, c.want) || strings.Contains(err, "panic:") {
			t.Errorf("%s: cell error %q, want one naming %q without a panic", c.name, err, c.want)
		}
	}
}

func TestSourceSpecSweepDeterministicAcrossWorkers(t *testing.T) {
	a := Run(sourceGrid(), Options{Workers: 1})
	b := Run(sourceGrid(), Options{Workers: 4})
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	ja, ca := serialize(t, a)
	jb, cb := serialize(t, b)
	if ja != jb || ca != cb {
		t.Error("source-backed sweep output differs across worker counts")
	}
	if !strings.Contains(ja, "\"source\"") {
		t.Error("emitted rows should carry the source spec")
	}
}

func TestSourceSpecPrecedenceOverWorkload(t *testing.T) {
	// When both Source and Workload are set, Source wins and the workload
	// seed is left alone (no derived-seed noise in the emitted rows).
	s := Spec{Mechanism: "baseline", Nodes: 512,
		Source: "synthetic:seed=3,weeks=1,nodes=512"}.withDefaults()
	if s.Workload.Seed != 0 {
		t.Errorf("source-backed cell derived a workload seed %d", s.Workload.Seed)
	}
	if !strings.Contains(s.Key(), "src=") {
		t.Errorf("Key() should name the source, got %q", s.Key())
	}
	bad := Spec{Mechanism: "baseline", Source: "nosuchhead:x"}
	sweep := Run([]Spec{bad}, Options{Workers: 1})
	if sweep.Err() == nil {
		t.Error("unparseable source spec must fail the cell")
	}
}

func TestFaultSeedIndependentOfMechanism(t *testing.T) {
	// Every mechanism replaying one workload must face the identical failure
	// process, on both the generated and the source-backed path.
	gen := func(mech string) Spec {
		return Spec{Group: "g", Variant: "v", Mechanism: mech, FaultMTBF: 3600,
			Workload: workload.Config{Seed: 7, Nodes: 256, Weeks: 1}}.withDefaults()
	}
	if a, b := gen("baseline"), gen("CUA&SPAA"); a.FaultSeed != b.FaultSeed || a.FaultSeed == 0 {
		t.Fatalf("generated fault seeds diverge across mechanisms: %d vs %d", a.FaultSeed, b.FaultSeed)
	}
	src := func(mech string) Spec {
		return Spec{Group: "g", Variant: mech, Mechanism: mech, FaultMTBF: 3600,
			Source: "synthetic:seed=1,weeks=1,nodes=256"}.withDefaults()
	}
	a, b := src("baseline"), src("CUA&SPAA")
	if a.FaultSeed != b.FaultSeed || a.FaultSeed == 0 {
		t.Fatalf("source fault seeds diverge across mechanisms: %d vs %d", a.FaultSeed, b.FaultSeed)
	}
	// Source cells defer the horizon to runOne (trace span not yet known).
	if a.FaultHorizon != 0 {
		t.Fatalf("source cell resolved horizon %d in withDefaults", a.FaultHorizon)
	}
	if g := gen("baseline"); g.FaultHorizon != int64(1+4)*simtime.Week {
		t.Fatalf("generated horizon %d, want %d", g.FaultHorizon, int64(5)*simtime.Week)
	}
}

func TestSourceCellFaultHorizonCoversTrace(t *testing.T) {
	// A fault-enabled source cell must inject across the whole replayed
	// trace: the resolved horizon (echoed in the result spec) covers the
	// trace span plus drain room.
	spec := Spec{Mechanism: "baseline", Nodes: 256, FaultMTBF: 6 * 3600, FaultMeanRepair: 600,
		Source: "synthetic:seed=3,weeks=2,nodes=256"}
	sweep := Run([]Spec{spec}, Options{Workers: 1})
	if err := sweep.Err(); err != nil {
		t.Fatal(err)
	}
	res := sweep.Results[0]
	if res.Spec.FaultHorizon < 2*simtime.Week {
		t.Fatalf("resolved horizon %d does not cover the 2-week trace", res.Spec.FaultHorizon)
	}
	if res.Report.FailuresInjected == 0 {
		t.Fatal("no failures struck over the source replay")
	}
}

// TestBackfillReservedFromCore: Core.BackfillReserved alone turns squatting
// on in both the mechanism and the engine, so the cell reports what a direct
// simulation with BackfillReserved on reports — and not what the off cell
// does.
func TestBackfillReservedFromCore(t *testing.T) {
	sc := simtest.Scenario{Mechanism: "CUA&SPAA", Mix: "W2", Seed: 1, Nodes: 1024, Weeks: 2, Policy: "fcfs"}
	mix, err := workload.MixByName(sc.Mix)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(on bool) []byte {
		t.Helper()
		spec := Spec{Mechanism: sc.Mechanism, Nodes: sc.Nodes, Core: core.DefaultConfig(),
			Workload: workload.Config{Seed: sc.Seed, Nodes: sc.Nodes, Weeks: sc.Weeks, Mix: mix}}
		spec.Core.BackfillReserved = on
		sweep := Run([]Spec{spec}, Options{Workers: 1})
		if err := sweep.Err(); err != nil {
			t.Fatal(err)
		}
		js, err := simtest.ReportJSON(sweep.Results[0].Report)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	sc.BackfillReserved = true
	rep, err := simtest.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simtest.ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	on, off := cell(true), cell(false)
	if bytes.Equal(want, off) {
		t.Fatal("scenario too small: BackfillReserved on and off report alike")
	}
	if !bytes.Equal(on, want) {
		t.Fatalf("Core.BackfillReserved cell:\n%s\nsimulation with BackfillReserved on:\n%s", on, want)
	}
}
