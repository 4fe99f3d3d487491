package exp

import (
	"fmt"
	"io"

	"hybridsched/internal/runner"
	"hybridsched/internal/simtime"
	"hybridsched/internal/workload"
)

// AblationResult is a generic one-factor sweep: one Cell per variant.
type AblationResult struct {
	Title string
	Cells []Cell
}

// Flatten returns the grid-ordered cells for serialization.
func (r AblationResult) Flatten() []Cell { return r.Cells }

// Render writes the sweep as a table.
func (r AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", r.Title)
	tw := newTable(w, "variant", "turn (h)", "rigid (h)", "mall (h)",
		"util (%)", "instant (%)", "preempt R/M (%)")
	for _, c := range r.Cells {
		tw.row(c.Workload,
			fmt.Sprintf("%.1f", c.TurnAllH),
			fmt.Sprintf("%.1f", c.TurnRigidH),
			fmt.Sprintf("%.1f", c.TurnMallH),
			fmt.Sprintf("%.1f", 100*c.Util),
			fmt.Sprintf("%.1f", 100*c.Instant),
			fmt.Sprintf("%.2f/%.2f", 100*c.PreemptRigid, 100*c.PreemptMall))
	}
	tw.flush()
}

// AblationBackfillReserved compares CUA&SPAA with and without backfilling
// onto reserved nodes (the §III-B.1 option: squatters are preempted on
// arrival).
func AblationBackfillReserved(o Options) (AblationResult, error) {
	o = o.withDefaults()
	out := AblationResult{Title: "Ablation: backfill onto reserved nodes (CUA&SPAA, W2)"}
	var specs []runner.Spec
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		o.logf("ablation bfres: %s", name)
		specs = append(specs, o.cellSpecs("ablation-bfres", name, "CUA&SPAA", workload.W2,
			func(sp *runner.Spec) { sp.Core.BackfillReserved = on })...)
	}
	cells, err := o.runGrid(specs)
	if err != nil {
		return out, err
	}
	out.Cells = cells
	return out, nil
}

// AblationDirectedReturn compares N&PAA with and without the directed
// return-to-lender rule (§III-B.3): without it, returned nodes drop into the
// common pool and preempted jobs compete for them.
func AblationDirectedReturn(o Options) (AblationResult, error) {
	o = o.withDefaults()
	out := AblationResult{Title: "Ablation: directed return to lenders (N&PAA, W5)"}
	var specs []runner.Spec
	for _, on := range []bool{true, false} {
		name := "directed"
		if !on {
			name = "common-pool"
		}
		o.logf("ablation return: %s", name)
		specs = append(specs, o.cellSpecs("ablation-return", name, "N&PAA", workload.W5,
			func(sp *runner.Spec) { sp.Core.DirectedReturn = on })...)
	}
	cells, err := o.runGrid(specs)
	if err != nil {
		return out, err
	}
	out.Cells = cells
	return out, nil
}

// AblationMinSizeFraction sweeps the malleable minimum-size fraction
// (paper default 20 % of the maximum): smaller minima give SPAA more supply.
func AblationMinSizeFraction(o Options) (AblationResult, error) {
	o = o.withDefaults()
	out := AblationResult{Title: "Ablation: malleable min-size fraction (CUA&SPAA, W5)"}
	var specs []runner.Spec
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5} {
		name := fmt.Sprintf("%.0f%%", 100*frac)
		o.logf("ablation minsize: %s", name)
		specs = append(specs, o.cellSpecs("ablation-minsize", name, "CUA&SPAA", workload.W5,
			func(sp *runner.Spec) { sp.Workload.MalleableMinFrac = frac })...)
	}
	cells, err := o.runGrid(specs)
	if err != nil {
		return out, err
	}
	out.Cells = cells
	return out, nil
}

// AblationNoticeLead sweeps the advance-notice lead time for the collecting
// mechanisms (paper: 15-30 minutes; Obs. 12: earlier notice helps CUA).
func AblationNoticeLead(o Options) (AblationResult, error) {
	o = o.withDefaults()
	out := AblationResult{Title: "Ablation: advance-notice lead time (CUA&PAA, W2)"}
	var specs []runner.Spec
	for _, lead := range []int64{5, 15, 30, 60} {
		name := fmt.Sprintf("%dm", lead)
		o.logf("ablation lead: %s", name)
		specs = append(specs, o.cellSpecs("ablation-lead", name, "CUA&PAA", workload.W2,
			func(sp *runner.Spec) {
				sp.Workload.NoticeLeadMin = lead * simtime.Minute
				sp.Workload.NoticeLeadMax = 2 * lead * simtime.Minute
			})...)
	}
	cells, err := o.runGrid(specs)
	if err != nil {
		return out, err
	}
	out.Cells = cells
	return out, nil
}

// AblationQueuePolicy runs CUA&SPAA under different waiting-queue policies,
// exercising the pluggable-policy design the mechanisms are meant to be
// orthogonal to (§I).
func AblationQueuePolicy(o Options) (AblationResult, error) {
	o = o.withDefaults()
	out := AblationResult{Title: "Ablation: waiting-queue policy (CUA&SPAA, W5)"}
	var specs []runner.Spec
	for _, pol := range []string{"fcfs", "sjf", "wfp3"} {
		o.logf("ablation policy: %s", pol)
		specs = append(specs, o.cellSpecs("ablation-policy", pol, "CUA&SPAA", workload.W5,
			func(sp *runner.Spec) { sp.Policy = pol })...)
	}
	cells, err := o.runGrid(specs)
	if err != nil {
		return out, err
	}
	out.Cells = cells
	return out, nil
}
