package metrics

import (
	"strings"
	"testing"
	"time"
)

// sloSnapshot builds a snapshot where good observations sit well under
// the threshold and bad ones well over it.
func sloSnapshot(t *testing.T, good, bad int) Snapshot {
	t.Helper()
	r := New()
	h := r.BucketedHistogram("chronus.test.latency")
	for i := 0; i < good; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < bad; i++ {
		h.ObserveDuration(50 * time.Millisecond)
	}
	return r.Snapshot()
}

func TestEvalSLO(t *testing.T) {
	snap := sloSnapshot(t, 999, 1)
	rep, err := EvalSLO(snap, SLO{Metric: "chronus.test.latency", Threshold: 10 * time.Millisecond, Objective: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1000 || rep.Good != 999 {
		t.Fatalf("good/total = %d/%d", rep.Good, rep.Total)
	}
	if rep.Attainment != 0.999 {
		t.Errorf("attainment = %g", rep.Attainment)
	}
	// 0.1% failures against a 1% error budget: 10% burned.
	if rep.ErrorBudgetBurn < 0.099 || rep.ErrorBudgetBurn > 0.101 {
		t.Errorf("burn = %g, want ~0.1", rep.ErrorBudgetBurn)
	}
	if !rep.Met {
		t.Error("SLO should be met")
	}
}

func TestEvalSLOViolated(t *testing.T) {
	snap := sloSnapshot(t, 90, 10)
	rep, err := EvalSLO(snap, SLO{Metric: "chronus.test.latency", Threshold: 10 * time.Millisecond, Objective: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Met {
		t.Error("SLO should be violated at 90% attainment vs 99% objective")
	}
	if rep.ErrorBudgetBurn < 9.9 || rep.ErrorBudgetBurn > 10.1 {
		t.Errorf("burn = %g, want ~10", rep.ErrorBudgetBurn)
	}
}

func TestEvalSLOSurvivesMerge(t *testing.T) {
	// The `chronus slo` path: snapshots persisted by separate runs are
	// merged, and the SLO math must hold on the merged bucket counts.
	a := sloSnapshot(t, 500, 0)
	b := sloSnapshot(t, 499, 1)
	a.Merge(b)
	rep, err := EvalSLO(a, SLO{Metric: "chronus.test.latency", Threshold: 10 * time.Millisecond, Objective: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1000 || rep.Good != 999 {
		t.Fatalf("merged good/total = %d/%d, want 999/1000", rep.Good, rep.Total)
	}
}

func TestEvalSLOErrors(t *testing.T) {
	snap := sloSnapshot(t, 1, 0)
	cases := []SLO{
		{Metric: "chronus.test.latency", Threshold: time.Millisecond, Objective: 0}, // objective out of range
		{Metric: "chronus.test.latency", Threshold: time.Millisecond, Objective: 1}, // objective out of range
		{Metric: "chronus.test.latency", Threshold: 0, Objective: 0.99},             // no threshold
		{Metric: "chronus.missing", Threshold: time.Millisecond, Objective: 0.99},   // unknown metric
	}
	for _, c := range cases {
		if _, err := EvalSLO(snap, c); err == nil {
			t.Errorf("EvalSLO(%+v) should fail", c)
		}
	}
	// A bucketless stat (a metrics.json from an older binary) cannot
	// back an SLO evaluation.
	old := Snapshot{Histograms: map[string]HistogramStat{
		"chronus.test.exact": {Count: 1, Sum: 0.001, Min: 0.001, Max: 0.001, Mean: 0.001, P50: 0.001, P90: 0.001, P99: 0.001, P999: 0.001},
	}}
	if _, err := EvalSLO(old, SLO{Metric: "chronus.test.exact", Threshold: time.Millisecond, Objective: 0.99}); err == nil {
		t.Error("EvalSLO over an unbucketed histogram should fail")
	}
}

// An empty histogram must yield an explicit no-data verdict — never an
// error, and never a "met" report (the old behavior errored; a caller
// swallowing the error read it as 100% attainment).
func TestEvalSLOEmptyHistogramNoData(t *testing.T) {
	snap := sloSnapshot(t, 0, 0)
	rep, err := EvalSLO(snap, SLO{Metric: "chronus.test.latency", Threshold: 10 * time.Millisecond, Objective: 0.99})
	if err != nil {
		t.Fatalf("empty histogram should not error: %v", err)
	}
	if !rep.NoData {
		t.Fatalf("empty histogram: NoData = false, want true (report %+v)", rep)
	}
	if rep.Met {
		t.Fatal("empty histogram must not report the SLO as met")
	}
	if rep.Total != 0 || rep.Good != 0 || rep.Attainment != 0 {
		t.Fatalf("empty histogram: totals %+v, want all zero", rep)
	}
	var text strings.Builder
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "status      NO DATA") {
		t.Errorf("text report missing NO DATA status:\n%s", text.String())
	}
}

func TestSLOReportRenders(t *testing.T) {
	snap := sloSnapshot(t, 999, 1)
	rep, err := EvalSLO(snap, SLO{Metric: "chronus.test.latency", Threshold: 10 * time.Millisecond, Objective: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	var text, prom strings.Builder
	rep.WriteText(&text)
	for _, want := range []string{"chronus.test.latency", "attainment", "status      met"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	rep.WritePrometheus(&prom)
	for _, want := range []string{
		`chronus_slo_attainment{metric="chronus.test.latency"} 0.999`,
		`chronus_slo_error_budget_burn{metric="chronus.test.latency"}`,
		`chronus_slo_objective{metric="chronus.test.latency"} 0.99`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom.String())
		}
	}
}

// Bucketed histograms must flow through snapshot JSON and text
// rendering like exact ones.
func TestBucketedHistogramSnapshotRendering(t *testing.T) {
	r := New()
	r.BucketedHistogram("chronus.test.latency").ObserveDuration(3 * time.Millisecond)
	snap := r.Snapshot()

	var text strings.Builder
	snap.WriteText(&text)
	if !strings.Contains(text.String(), "chronus.test.latency") || !strings.Contains(text.String(), "p999=") {
		t.Errorf("WriteText missing bucketed histogram or p999:\n%s", text.String())
	}
	var prom strings.Builder
	snap.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), `chronus_test_latency{quantile="0.999"}`) {
		t.Errorf("WritePrometheus missing p999 series:\n%s", prom.String())
	}
}
