package ecosched

import (
	"strings"
	"testing"
)

func TestLoadgenSubmit(t *testing.T) {
	d := newDeployment(t, WithTracing())
	rep, err := d.RunLoadgen(LoadgenOptions{Mode: LoadgenModeSubmit, Count: 50, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 50 || rep.Mode != LoadgenModeSubmit {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.Rejected != 0 {
		t.Fatalf("controller rejected %d loadgen submissions", rep.Rejected)
	}
	// An untrained deployment fails every prediction open: all 50
	// submissions fall back and still count chain latency.
	if rep.Fallbacks != 50 {
		t.Fatalf("Fallbacks = %d, want 50", rep.Fallbacks)
	}
	if rep.Throughput <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", rep.Throughput, rep.WallSeconds)
	}
	if rep.P99 < rep.P50 || rep.P999 < rep.P99 {
		t.Fatalf("wall percentiles not monotone: %v %v %v", rep.P50, rep.P99, rep.P999)
	}
	if rep.SimP50 <= 0 {
		t.Fatalf("no simulated chain latency recorded: %+v", rep)
	}
	snap := d.Metrics.Snapshot()
	if got := snap.Histograms[MetricLoadgenLatency].Count; got != 50 {
		t.Fatalf("loadgen histogram count = %d, want 50", got)
	}
	if rep.SLO == nil {
		t.Fatal("no SLO evaluation despite a configured eco_budget")
	}
	if rep.SLO.Total != 50 {
		t.Fatalf("SLO total = %d, want 50", rep.SLO.Total)
	}
	if rep.DroppedTraceEvents != 0 {
		t.Fatalf("dropped %d trace events at smoke rate", rep.DroppedTraceEvents)
	}
}

func TestLoadgenPredictWarm(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		t.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := d.RunLoadgen(LoadgenOptions{Mode: LoadgenModePredict, Count: 200, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d predictions failed against a preloaded model", rep.Errors)
	}
	if rep.SLO == nil || rep.SLO.Total != 200 {
		t.Fatalf("SLO = %+v, want 200 evaluated predictions", rep.SLO)
	}
	// Warm predictions answer from the decoded-model cache in well
	// under the 50ms default budget — the paper's core claim.
	if !rep.SLO.Met {
		t.Fatalf("warm predict SLO violated: %+v", rep.SLO)
	}
	if rep.SimP99 <= 0 {
		t.Fatalf("no simulated predict latency: %+v", rep)
	}
}

func TestLoadgenUnknownMode(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.RunLoadgen(LoadgenOptions{Mode: "bogus"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestLoadgenReportFormats(t *testing.T) {
	d := newDeployment(t)
	rep, err := d.RunLoadgen(LoadgenOptions{Count: 10, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}

	var text strings.Builder
	rep.WriteText(&text)
	for _, want := range []string{"loadgen     submit", "ops         10", "wall lat", "sim lat", "slo "} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("WriteText lacks %q:\n%s", want, text.String())
		}
	}

	var bench strings.Builder
	rep.WriteBench(&bench)
	line := strings.TrimSpace(bench.String())
	fields := strings.Fields(line)
	// The benchjson contract: Benchmark name, iterations, then
	// value/unit pairs.
	if fields[0] != "BenchmarkLoadgenSubmit" || fields[1] != "10" {
		t.Fatalf("bench line header %q", line)
	}
	if len(fields) < 4 || len(fields)%2 != 0 {
		t.Fatalf("bench line not value/unit paired: %q", line)
	}
	if !strings.Contains(line, "ns/op") || !strings.Contains(line, "ops/s") ||
		!strings.Contains(line, "slo-attainment") {
		t.Fatalf("bench line lacks expected units: %q", line)
	}
}
