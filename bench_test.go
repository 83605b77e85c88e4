package ecosched

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation, plus the ablations. Each benchmark runs
// the complete regeneration pipeline (simulated cluster, Chronus
// benchmarking, IPMI sampling) and reports paper-shape metrics as
// custom units alongside the usual ns/op:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/optimizer"
	"ecosched/internal/paperdata"
	"ecosched/internal/repository"
	"ecosched/internal/workload"
)

func benchDeployment(b *testing.B) *Deployment {
	b.Helper()
	d, err := New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

// BenchmarkTable1Sweep regenerates Tables 1 and 4–6: the full
// 138-configuration GFLOPS/W sweep through the Chronus pipeline.
func BenchmarkTable1Sweep(b *testing.B) {
	b.ReportAllocs()
	var headline float64
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		res, err := d.RunSweepExperiment()
		if err != nil {
			b.Fatal(err)
		}
		best := res.Best()
		std, _ := res.Find(32, 2.5, false)
		headline = best.GFLOPSPerWatt / std.GFLOPSPerWatt
		if best.Cores != 32 || best.GHz != 2.2 {
			b.Fatalf("wrong winner: %+v", best)
		}
	}
	b.ReportMetric(100*(headline-1), "headline-%")
}

// BenchmarkFig14Surface regenerates the Figure 14 surfaces from the
// sweep (surface extraction itself, on a cached sweep).
func BenchmarkFig14Surface(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	res, err := d.RunSweepExperiment()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.Surface(false))+len(res.Surface(true)) != 138 {
			b.Fatal("surface size")
		}
	}
}

// BenchmarkFig15Trace regenerates Figure 15 and Table 2: the
// best-vs-standard full runs with 3-second BMC sampling.
func BenchmarkFig15Trace(b *testing.B) {
	b.ReportAllocs()
	var sysRed float64
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		res, err := d.RunTraceExperiment()
		if err != nil {
			b.Fatal(err)
		}
		sysRed = res.SystemReductionPct
	}
	b.ReportMetric(sysRed, "system-reduction-%")
}

// BenchmarkTable3Baselines regenerates Table 3, including the GA
// baseline search.
func BenchmarkTable3Baselines(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(PaperSweepConfigs(), 3*time.Second); err != nil {
		b.Fatal(err)
	}
	trace, err := d.RunTraceExperiment()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ecoRed float64
	for i := 0; i < b.N; i++ {
		res, err := d.RunComparisonExperiment(trace)
		if err != nil {
			b.Fatal(err)
		}
		ecoRed = res.Rows[0].SystemReductionPct
	}
	b.ReportMetric(ecoRed, "eco-reduction-%")
}

// BenchmarkEq1PowerAccuracy regenerates the Equation 1 / Figure 13
// IPMI-vs-wattmeter comparison.
func BenchmarkEq1PowerAccuracy(b *testing.B) {
	b.ReportAllocs()
	var diff float64
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		res, err := d.RunPowerAccuracyExperiment()
		if err != nil {
			b.Fatal(err)
		}
		diff = res.PercentDiff
	}
	b.ReportMetric(diff, "ipmi-diff-%")
}

// BenchmarkOptimizers is ablation A1: training plus best-configuration
// search per optimizer, on the full sweep history.
func BenchmarkOptimizers(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(PaperSweepConfigs(), 3*time.Second); err != nil {
		b.Fatal(err)
	}
	rows, err := d.benchRows()
	if err != nil {
		b.Fatal(err)
	}
	space := paperSpace()
	for _, name := range optimizer.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt, err := optimizer.New(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := opt.Train(rows); err != nil {
					b.Fatal(err)
				}
				if _, err := opt.BestConfig(space); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubmitLatency is ablation A2: the wall-clock cost of one
// job_submit_eco invocation with a pre-loaded model — the code that
// must fit Slurm's submit budget.
func BenchmarkSubmitLatency(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := d.SubmitHPCGOptIn()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Cluster.WaitFor(job.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Plugin.Rewritten)/float64(b.N), "rewrites/op")
}

// BenchmarkPredictCacheHit measures the decoded-model cache on the
// hot path. The model file is deleted after the first prediction, so
// every iteration that completes proves the hit does no file read, no
// JSON decode and no optimizer sweep — it is the LatencyLocalRead
// lookup alone.
func BenchmarkPredictCacheHit(b *testing.B) {
	b.ReportAllocs()
	d := benchDeployment(b)
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	local, err := d.PreloadModel(meta.ID)
	if err != nil {
		b.Fatal(err)
	}
	sysHash, err := ecoplugin.SystemHash(d.fs)
	if err != nil {
		b.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}
	ctx := context.Background()
	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	if err := os.Remove(local.Path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Chronus.Predict.Predict(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != ecoplugin.SourceCache || res.Latency != core.LatencyLocalRead {
			b.Fatalf("not a cache hit: source %s, latency %v", res.Source, res.Latency)
		}
	}
	snap := d.Metrics.Snapshot()
	b.ReportMetric(float64(snap.Counters["chronus.predict.cache_hit"])/float64(b.N), "hits/op")
}

// BenchmarkPredictCacheHitTraced is BenchmarkPredictCacheHit with the
// decision tracer (ring + journal) enabled — the pair quantifies what
// tracing costs on the hottest path. The untraced variant exercises the
// nil-tracer no-op branches and must stay at its pre-instrumentation
// cost.
func BenchmarkPredictCacheHitTraced(b *testing.B) {
	b.ReportAllocs()
	d, err := New(b.TempDir(), WithTracing())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
		b.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		b.Fatal(err)
	}
	sysHash, err := ecoplugin.SystemHash(d.fs)
	if err != nil {
		b.Fatal(err)
	}
	req := ecoplugin.PredictRequest{SystemHash: sysHash, BinaryHash: ecoplugin.BinaryHash(d.HPCGPath)}
	ctx := context.Background()
	if _, err := d.Chronus.Predict.Predict(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Chronus.Predict.Predict(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != ecoplugin.SourceCache {
			b.Fatalf("not a cache hit: source %s", res.Source)
		}
	}
	b.ReportMetric(float64(len(d.Tracer.Recent()))/float64(b.N), "spans/op")
}

// BenchmarkGPUSweep is extension X3: the GPU DVFS grid sweep plus the
// constrained tune.
func BenchmarkGPUSweep(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		m := DefaultGPU()
		if pts := m.Sweep(); len(pts) == 0 {
			b.Fatal("empty sweep")
		}
		res, err := m.TuneWithinPerfLoss(0.01)
		if err != nil {
			b.Fatal(err)
		}
		saving = res.EnergySavingPct
	}
	b.ReportMetric(saving, "gpu-saving-%")
}

// BenchmarkEnergyMarketBestStart is extension X2: a 48-hour start-time
// search at 15-minute resolution.
func BenchmarkEnergyMarketBestStart(b *testing.B) {
	b.ReportAllocs()
	m := NewEnergyMarket(2023)
	window := time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		if _, _, err := m.BestStart(window, window.Add(48*time.Hour),
			19*time.Minute, 190, 15*time.Minute, MinCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline measures the paper's end-to-end user journey:
// quick sweep, train, pre-load, one rewritten job.
func BenchmarkFullPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		if _, err := d.BenchmarkConfigs(QuickSweepConfigs(), 0); err != nil {
			b.Fatal(err)
		}
		meta, err := d.TrainModel("brute-force")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.PreloadModel(meta.ID); err != nil {
			b.Fatal(err)
		}
		job, err := d.SubmitHPCGOptIn()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Cluster.WaitFor(job.ID); err != nil {
			b.Fatal(err)
		}
	}
	_ = paperdata.Fig1GFLOPS
}

// BenchmarkRepositoryBackends is a storage ablation: benchmark-row
// write throughput of the two Repository implementations (the paper's
// SQLite stand-in vs CSV).
func BenchmarkRepositoryBackends(b *testing.B) {
	b.ReportAllocs()
	row := repository.Benchmark{
		SystemID: 1, AppHash: "hpcg",
		Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1,
		GFLOPS: 9.27, AvgSystemW: 190.1, AvgCPUW: 97.4,
		SystemKJ: 214.4, CPUKJ: 109.8, RuntimeSeconds: 1127,
	}
	b.Run("filedb", func(b *testing.B) {
		b.ReportAllocs()
		repo, err := repository.OpenDB(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer repo.Close()
		if _, err := repo.SaveSystem(repository.System{Key: "k", Cores: 32, ThreadsPerCore: 2}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repo.SaveBenchmark(row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		repo, err := repository.OpenCSV(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer repo.Close()
		if _, err := repo.SaveSystem(repository.System{Key: "k", Cores: 32, ThreadsPerCore: 2}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := repo.SaveBenchmark(row); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGovernorAblation is ablation A3: four full HPCG runs, one
// per cpufreq governor.
func BenchmarkGovernorAblation(b *testing.B) {
	b.ReportAllocs()
	var ecoKJ float64
	for i := 0; i < b.N; i++ {
		d := benchDeployment(b)
		rows, err := d.RunGovernorAblation()
		if err != nil {
			b.Fatal(err)
		}
		ecoKJ = rows[len(rows)-1].SystemKJ
	}
	b.ReportMetric(ecoKJ, "eco-pin-kJ")
}

// BenchmarkParallelSweep runs the full 138-configuration sweep through
// the worker pool at different widths. On a multi-core runner the wide
// variants should show near-linear speedup; every variant must land on
// the paper's winner, demonstrating that parallelism changes only the
// wall clock, never the tables.
func BenchmarkParallelSweep(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := New(b.TempDir(), WithParallelism(p))
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunSweepExperiment()
				if err != nil {
					b.Fatal(err)
				}
				best := res.Best()
				if best.Cores != 32 || best.GHz != 2.2 || best.HyperThread {
					b.Fatalf("parallelism %d changed the winner: %+v", p, best)
				}
				d.Close()
			}
		})
	}
}

// BenchmarkClusterThroughput measures the cluster-scale event loop:
// the committed 100k-submission smoke spec (1,024 nodes across two
// partitions, generated workload) run end to end under one shared
// clock, reporting wall-clock submission throughput.
func BenchmarkClusterThroughput(b *testing.B) {
	b.ReportAllocs()
	spec, err := workload.LoadSpec("specs/scale-smoke.json")
	if err != nil {
		b.Fatal(err)
	}
	var report *ClusterReport
	for i := 0; i < b.N; i++ {
		if report, err = RunClusterSpec(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(report.Submissions)*float64(b.N)/b.Elapsed().Seconds(), "submissions/s")
	b.ReportMetric(float64(report.Totals.Completed), "jobs-completed")
}
