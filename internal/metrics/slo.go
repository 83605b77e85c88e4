// SLO evaluation over a bucketed histogram's CDF: "fraction of submit
// decisions answered within the latency budget, against an objective".
// The evaluation is stateless — it consumes a Snapshot, so it works
// identically on the live registry (/metrics), the persisted
// metrics.json (`chronus slo`), and a loadgen run's report.
package metrics

import (
	"fmt"
	"io"
	"time"
)

// DefaultObjective is the attainment target used when a caller does
// not state one: 99% of submit decisions within the latency budget.
const DefaultObjective = 0.99

// SLO states a latency objective for one histogram: at least Objective
// of observations must be at or below Threshold.
type SLO struct {
	// Metric is the histogram name (a bucketed histogram: the bucket
	// CDF is what makes the good/total split computable from a
	// snapshot).
	Metric string
	// Threshold is the per-observation latency objective, typically the
	// slurm.conf eco_budget.
	Threshold time.Duration
	// Objective is the target attainment fraction in (0, 1), e.g.
	// 0.999 for "99.9% of submits within budget".
	Objective float64
}

// SLOReport is the evaluation outcome.
type SLOReport struct {
	Metric     string  `json:"metric"`
	ThresholdS float64 `json:"threshold_s"`
	Objective  float64 `json:"objective"`
	Total      int64   `json:"total"`
	Good       int64   `json:"good"`
	Attainment float64 `json:"attainment"`
	// ErrorBudgetBurn is the consumed fraction of the allowed error
	// budget: (1 - attainment) / (1 - objective). 1.0 means the budget
	// is exactly spent; above 1.0 the SLO is violated.
	ErrorBudgetBurn float64 `json:"error_budget_burn"`
	Met             bool    `json:"met"`
	// NoData marks an evaluation over an empty histogram: the histogram
	// exists but has zero observations, so attainment is undefined.
	// Callers must not read it as "SLO met" — the CLI exits non-zero.
	NoData bool `json:"no_data,omitempty"`
}

// EvalSLO evaluates slo against a snapshot. The named histogram must
// carry bucket counts: a bucketless stat (a metrics.json persisted by
// an older binary) cannot answer "how many observations ever exceeded
// the threshold" from its summary.
func EvalSLO(s Snapshot, slo SLO) (SLOReport, error) {
	r := SLOReport{Metric: slo.Metric, ThresholdS: slo.Threshold.Seconds(), Objective: slo.Objective}
	if slo.Objective <= 0 || slo.Objective >= 1 {
		return r, fmt.Errorf("metrics: SLO objective must be in (0, 1), got %g", slo.Objective)
	}
	if slo.Threshold <= 0 {
		return r, fmt.Errorf("metrics: SLO threshold must be positive, got %v", slo.Threshold)
	}
	st, ok := s.Histograms[slo.Metric]
	if !ok {
		return r, fmt.Errorf("metrics: no histogram %q in snapshot", slo.Metric)
	}
	if len(st.Buckets) == 0 {
		if st.Count == 0 {
			// A histogram with no observations snapshots with no
			// buckets: an explicit no-data verdict, not an error.
			// Attainment stays zero and Met stays false so a careless
			// caller fails safe.
			r.NoData = true
			return r, nil
		}
		return r, fmt.Errorf("metrics: histogram %q has no bucket counts (not a bucketed histogram?)", slo.Metric)
	}
	// A bucket is good when its whole range fits the threshold. The
	// bucket straddling the threshold counts as bad — conservative by
	// at most one bucket width (~3% of the threshold).
	for _, b := range st.Buckets {
		r.Total += b.Count
		if b.LE <= r.ThresholdS {
			r.Good += b.Count
		}
	}
	if r.Total == 0 {
		r.NoData = true
		return r, nil
	}
	r.Attainment = float64(r.Good) / float64(r.Total)
	r.ErrorBudgetBurn = (1 - r.Attainment) / (1 - slo.Objective)
	r.Met = r.Attainment >= slo.Objective
	return r, nil
}

// WriteText renders the report in a stable human-readable layout.
func (r SLOReport) WriteText(w io.Writer) {
	status := "met"
	switch {
	case r.NoData:
		status = "NO DATA"
	case !r.Met:
		status = "VIOLATED"
	}
	fmt.Fprintf(w, "slo         %s\n", r.Metric)
	fmt.Fprintf(w, "threshold   %v\n", time.Duration(r.ThresholdS*float64(time.Second)).Round(time.Microsecond))
	fmt.Fprintf(w, "objective   %.4f%%\n", r.Objective*100)
	fmt.Fprintf(w, "observed    %d total, %d within threshold\n", r.Total, r.Good)
	fmt.Fprintf(w, "attainment  %.4f%%\n", r.Attainment*100)
	fmt.Fprintf(w, "budget burn %.3f\n", r.ErrorBudgetBurn)
	fmt.Fprintf(w, "status      %s\n", status)
}

// SLO gauge names on the Prometheus exposition. Rendered with a
// metric label per evaluated histogram.
const (
	sloAttainmentName = "chronus.slo.attainment"
	sloObjectiveName  = "chronus.slo.objective"
	sloBurnName       = "chronus.slo.error_budget_burn"
	sloThresholdName  = "chronus.slo.threshold_seconds"
)

// WritePrometheus renders the report as labelled gauges, appendable to
// a Snapshot.WritePrometheus exposition.
func (r SLOReport) WritePrometheus(w io.Writer) {
	label := fmt.Sprintf("{metric=%q}", r.Metric)
	for _, g := range []struct {
		name string
		v    float64
	}{
		{sloAttainmentName, r.Attainment},
		{sloObjectiveName, r.Objective},
		{sloBurnName, r.ErrorBudgetBurn},
		{sloThresholdName, r.ThresholdS},
	} {
		p := promName(g.name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %s\n", p, p, label, promFloat(g.v))
	}
}
