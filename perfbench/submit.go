package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ecosched"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/fault"
	"ecosched/internal/metrics"
	"ecosched/internal/paperdata"
	"ecosched/internal/procfs"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// The submit workloads' deployment: the paper's head node plus three
// more compute nodes, the stock filedb repository, settings on disk and
// decision tracing on, as `chronus` builds it. The eco plugin runs
// under a 50 ms eco_budget, which the preloaded path (≈ 10 ms simulated)
// fits.
const (
	submitNodes = 4
	ecoBudget   = 50 * time.Millisecond
	// tracedPluginName is the slurm.conf JobSubmitPlugins entry the
	// traced run registers its decorated eco plugin under.
	tracedPluginName = "perfbench_eco"
	// metricSourcePreloaded counts rewrites answered by reading the
	// pre-loaded model file (not the decoded-model cache).
	metricSourcePreloaded = "chronus.eco.plugin.source.preloaded"
)

// One opt-in HPCG job runs ≈ 18.6 simulated minutes on a node. Arrivals
// are Poisson with mean gap meanArrivalGap, which offers the four nodes
// ≈ 60% load: jobs run while later jobs arrive, and the queue stays
// bounded.
const meanArrivalGap = 470 * time.Second

// The paper's rewrite (Table 1's winner): 32 cores, 2.2 GHz, one thread
// per core.
const (
	winnerCores   = 32
	winnerFreqKHz = 2_200_000
	winnerTPC     = 1
)

// rateChunk is the number of loop iterations per throughput sample.
const rateChunk = 500

// submit-churn's operator schedule: an action every 5–25 submissions,
// either a load-model or a deactivation lasting 2–6 submissions. Each
// action makes the next rewrite a cache miss, so misses are ≈ 6% of the
// submissions: enough that submit_p99_us falls well inside the miss
// path rather than on its edge.
const (
	churnGapMin    = 5
	churnGapSpan   = 21
	deactivateMin  = 2
	deactivateSpan = 5
)

// optInScript renders the paper's opt-in HPCG batch script, the same
// text Deployment.SubmitHPCGOptIn submits.
func optInScript(hpcgPath string) string {
	return fmt.Sprintf(`#!/bin/bash
#SBATCH --nodes=1
#SBATCH --ntasks=%d
#SBATCH --cpu-freq=2500000
#SBATCH --comment "chronus"

srun --mpi=pmix_v4 --ntasks-per-core=1 %s
`, paperdata.CPUCores, hpcgPath)
}

// newSubmitDeployment builds and warms one deployment: the quick sweep,
// a brute-force model trained on it, and that model pre-loaded.
func newSubmitDeployment(dir string, seed uint64, pluginName string) (*ecosched.Deployment, int64, error) {
	conf := fmt.Sprintf("ClusterName=ecosched\nJobSubmitPlugins=%s\nSchedulerParameters=eco_budget=%s\n",
		pluginName, ecoBudget)
	d, err := ecosched.New(dir,
		ecosched.WithTracing(),
		ecosched.WithNodes(submitNodes),
		ecosched.WithSeed(seed),
		ecosched.WithParallelism(1),
		ecosched.WithSlurmConf(conf))
	if err != nil {
		return nil, 0, err
	}
	if _, err := d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
		d.Close()
		return nil, 0, err
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		d.Close()
		return nil, 0, err
	}
	return d, meta.ID, nil
}

// submitLoop is one submit-workload run: a single sbatch client in a
// closed loop against slurmctld, with Poisson arrivals in simulated
// time and, for submit-churn, operator actions on a seeded schedule.
type submitLoop struct {
	d       *ecosched.Deployment
	plugin  *ecoplugin.Plugin
	modelID int64
	script  string
	churn   bool
	tr      *submitTrace // nil on untraced runs

	arrivals *simclock.RNG
	actions  *simclock.RNG

	// Operator state (submit-churn).
	nextAction  int
	deactivated int // submissions left in the current deactivation
	// awaitPreloaded is set after a load-model or a reactivation: the
	// next rewrite must come from the re-read model, so the preloaded
	// source counter must read preloadedAt+1 then.
	awaitPreloaded bool
	preloadedAt    int64
	preloaded      *metrics.Counter

	// Outcomes.
	latUS                          []float64
	attempted, rejected, rewritten int
	fallbacks, skipped             int
	loadModels, setStates          int
	checkErr                       error

	// actionCPU is the loop thread's CPU time spent in operator
	// actions, which the loop's throughput leaves out.
	actionCPU time.Duration
}

func runSubmit(p params, churn bool) (result, error) {
	// The loop's times are read from this thread's CPU clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pluginName := "eco"
	if p.trace {
		pluginName = tracedPluginName
	}
	var (
		d       *ecosched.Deployment
		modelID int64
		setups  []float64
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return result{}, err
			}
		}
		dir := filepath.Join(p.workdir, fmt.Sprintf("deploy-%d", i))
		t0 := processCPU()
		var err error
		if d, modelID, err = newSubmitDeployment(dir, p.seed, pluginName); err != nil {
			return result{}, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}
	defer d.Close()

	l := &submitLoop{
		d: d, plugin: d.Plugin, modelID: modelID, churn: churn,
		script:    optInScript(d.HPCGPath),
		arrivals:  simclock.NewRNG(p.seed),
		actions:   simclock.NewRNG(p.seed ^ 0x5eed_c4a2),
		preloaded: d.Metrics.Counter(metricSourcePreloaded),
	}
	if p.trace {
		if err := l.installTracedPlugin(); err != nil {
			return result{}, err
		}
	}
	l.scheduleAction(0)

	// The loop's throughput is taken per chunk of rateChunk iterations
	// on the loop thread's CPU clock, and the run reports the median
	// chunk: a burst of interference moves a few chunks, not the result.
	// Operator actions are not the client's work: their CPU time is
	// left out (the traced run times them as core.load_model_us and
	// core.set_state_us).
	var chunkRates []float64
	alloc0 := allocBytes()
	start := time.Now()
	chunkStart := threadCPU() - l.actionCPU
	for time.Since(start) < p.seconds {
		if err := l.step(); err != nil {
			return result{}, err
		}
		if l.attempted%rateChunk == 0 {
			now := threadCPU() - l.actionCPU
			chunkRates = append(chunkRates, rateChunk/(now-chunkStart).Seconds())
			chunkStart = now
		}
	}
	if len(chunkRates) == 0 { // a run too short for one whole chunk
		chunkRates = append(chunkRates, float64(l.attempted)/(threadCPU()-l.actionCPU-chunkStart).Seconds())
	}
	allocPerOp := float64(allocBytes()-alloc0) / float64(l.attempted)

	// A fail-open fallback is an accepted submission whose job runs as
	// written: it shows in rewrite_ratio, not as a failed operation.
	res := result{Attempted: l.attempted, Failed: l.rejected}
	if err := l.finalChecks(); err != nil && l.checkErr == nil {
		l.checkErr = err
	}
	if p.trace {
		res.Metrics = l.tr.metrics(l)
		return res, l.checkErr
	}
	tot := d.Cluster.Accounting().Totals()
	rate := median(chunkRates)
	res.Metrics = map[string]metric{
		"setup_s":               {median(setups), "s"},
		"submit_p50_us":         {quantile(l.latUS, 0.50), "us"},
		"submit_p99_us":         {quantile(l.latUS, 0.99), "us"},
		"submits_per_s":         {rate, "1/s"},
		"sim_submissions_per_s": {rate, "1/s"},
		"rewrite_ratio":         {ratio(float64(l.rewritten), float64(l.rewritten+l.fallbacks)), "ratio"},
		"job_energy_kj":         {ratio(tot.SystemKJ, float64(tot.Completed)), "kJ"},
		"mean_wait_s":           {ratio(tot.WaitSeconds, float64(tot.Completed+tot.Failed)), "s"},
		"alloc_bytes_per_op":    {allocPerOp, "bytes"},
	}
	return res, l.checkErr
}

// fail records the first failed output check; the run continues so the
// result still reports what was measured.
func (l *submitLoop) fail(format string, args ...any) {
	if l.checkErr == nil {
		l.checkErr = checkFailed(format, args...)
	}
}

// scheduleAction draws the submission index of the next operator action.
func (l *submitLoop) scheduleAction(now int) {
	l.nextAction = now + churnGapMin + l.actions.Intn(churnGapSpan)
}

// operate runs the operator action due before submission l.attempted.
func (l *submitLoop) operate() error {
	set := l.d.Chronus.Set
	if l.deactivated > 0 {
		l.deactivated--
		if l.deactivated > 0 {
			return nil
		}
		if err := l.act(false, func() error { return set.SetState(string(settings.StateUser)) }); err != nil {
			return err
		}
		l.setStates++
		l.expectReload()
		l.scheduleAction(l.attempted)
		return nil
	}
	if l.attempted != l.nextAction {
		return nil
	}
	if l.actions.Float64() < 0.5 {
		if err := l.act(true, func() error {
			_, err := l.d.Chronus.LoadModel.Run(l.modelID)
			return err
		}); err != nil {
			return err
		}
		l.loadModels++
		l.expectReload()
		l.scheduleAction(l.attempted)
		return nil
	}
	if err := l.act(false, func() error { return set.SetState(string(settings.StateDeactivated)) }); err != nil {
		return err
	}
	l.setStates++
	l.deactivated = deactivateMin + l.actions.Intn(deactivateSpan)
	return nil
}

// expectReload arms the check that the next rewrite reads the model
// file again rather than answering from the invalidated cache.
func (l *submitLoop) expectReload() {
	l.awaitPreloaded = true
	l.preloadedAt = l.preloaded.Value()
}

// step is one iteration of the closed loop: any due operator action,
// one timed SubmitScript, the outcome checks, then the simulated
// inter-arrival gap.
func (l *submitLoop) step() error {
	if l.churn {
		if err := l.operate(); err != nil {
			return err
		}
	}
	rw0, fb0 := l.plugin.Rewritten, l.plugin.Fallbacks
	deactivated := l.deactivated > 0

	var job *slurm.Job
	var err error
	if l.tr != nil {
		job, err = l.tr.submit(l)
	} else {
		t0 := threadCPU()
		job, err = l.d.Cluster.SubmitScript(l.script)
		l.latUS = append(l.latUS, float64((threadCPU()-t0).Nanoseconds())/1e3)
	}
	l.attempted++

	switch {
	case err != nil:
		l.rejected++
		l.fail("submission %d rejected: %v", l.attempted, err)
	case l.plugin.Rewritten > rw0:
		l.rewritten++
		if deactivated {
			l.fail("job %d rewritten while the plugin was deactivated", job.ID)
		}
		if ds := job.Desc; ds.NumTasks != winnerCores || ds.ThreadsPerCPU != winnerTPC ||
			ds.MinFreqKHz != winnerFreqKHz || ds.MaxFreqKHz != winnerFreqKHz {
			l.fail("job %d rewritten to %d cores, %d-%d kHz, %d threads per core; want %d cores at %d kHz, %d thread",
				job.ID, ds.NumTasks, ds.MinFreqKHz, ds.MaxFreqKHz, ds.ThreadsPerCPU, winnerCores, winnerFreqKHz, winnerTPC)
		}
		if l.awaitPreloaded {
			l.awaitPreloaded = false
			if got := l.preloaded.Value(); got != l.preloadedAt+1 {
				l.fail("job %d: first rewrite after load-model/set did not read the re-loaded model (preloaded source %d → %d)",
					job.ID, l.preloadedAt, got)
			}
		}
	case l.plugin.Fallbacks > fb0:
		l.fallbacks++
		if deactivated {
			l.fail("job %d fell back while the plugin was deactivated", job.ID)
		}
		l.tr.noteFallback(l.plugin.LastErr)
	default:
		l.skipped++
		if !deactivated {
			l.fail("opt-in job %d skipped while the plugin was on", job.ID)
		}
	}

	gap := time.Duration(-math.Log(1-l.arrivals.Float64()) * float64(meanArrivalGap))
	if l.tr != nil {
		t0 := time.Now()
		l.d.Sim.RunFor(gap)
		l.tr.advance.add(time.Since(t0))
	} else {
		l.d.Sim.RunFor(gap)
	}
	return nil
}

// finalChecks runs the whole-run checks: every simulated plugin-chain
// latency within eco_budget, and the run not vacuous.
func (l *submitLoop) finalChecks() error {
	st, ok := l.d.Metrics.Snapshot().Histograms[slurm.MetricChainLatency]
	if !ok || st.Count == 0 {
		return checkFailed("no plugin-chain latency was observed")
	}
	if maxLat := time.Duration(st.Max * float64(time.Second)); maxLat > ecoBudget {
		return checkFailed("plugin-chain latency %v exceeds eco_budget %v", maxLat, ecoBudget)
	}
	if l.rewritten == 0 {
		return checkFailed("no submission was rewritten")
	}
	if l.churn && l.attempted >= 200 && (l.loadModels == 0 || l.setStates == 0) {
		return checkFailed("churn ran %d load-models and %d set actions in %d submissions",
			l.loadModels, l.setStates, l.attempted)
	}
	return nil
}

// installTracedPlugin builds a second eco plugin over timing decorators
// of the three collaborators ecoplugin.New takes — the seam the fault
// decorators use — and registers it under the benchmark's own
// JobSubmitPlugins entry, so the traced spans nest as
// SubmitScript ⊃ JobSubmit ⊃ {Load, ReadFile, Predict}.
func (l *submitLoop) installTracedPlugin() error {
	tr := &submitTrace{causes: map[string]int{}, dropped: l.d.Metrics.Counter(trace.MetricDropped)}
	tr.dropped0 = tr.dropped.Value()
	fs := fault.FileReader(procfs.New(l.d.Nodes[0]), l.d.Fault)
	plugin, err := ecoplugin.New(
		timedFS{inner: fs, tr: tr},
		timedPredictor{inner: l.d.Chronus.Predict, tr: tr},
		timedSettings{inner: l.d.Settings, tr: tr},
		ecoplugin.WithBudget(l.d.Cluster.Conf().EcoBudget),
		ecoplugin.WithMetrics(l.d.Metrics),
		ecoplugin.WithTracer(l.d.Tracer))
	if err != nil {
		return err
	}
	l.d.Cluster.RegisterPlugin(timedPlugin{inner: plugin, tr: tr})
	l.plugin = plugin
	l.tr = tr
	return nil
}

// span accumulates the wall time and call count of one traced call site.
type span struct {
	ns    int64
	calls int
}

func (s *span) add(d time.Duration) { s.ns += d.Nanoseconds(); s.calls++ }

// meanUS is the mean duration per call in microseconds.
func (s span) meanUS() float64 { return ratio(float64(s.ns)/1e3, float64(s.calls)) }

// submitTrace collects the traced run's spans on the submit path.
type submitTrace struct {
	script, jobSubmit, load, read, hash, advance span
	predict, predictMiss, predictFail            span
	loadModel, setState                          span
	predictHits                                  int
	bytesRead                                    int64

	// The SystemHash interval of the submission in flight: from the
	// first /proc/cpuinfo read to the Predict call (or the end of
	// JobSubmit when the plugin gives up before predicting).
	hashStart time.Time
	hashOpen  bool

	causes map[string]int

	// Decision-trace spans, counted on every spanSampleEvery-th
	// submission; drops read from the tracer's counter.
	spanSamples, spanCount int
	dropped                *metrics.Counter
	dropped0               int64
}

const spanSampleEvery = 16

// submit times one SubmitScript call and samples its decision trace.
func (tr *submitTrace) submit(l *submitLoop) (*slurm.Job, error) {
	t0 := time.Now()
	job, err := l.d.Cluster.SubmitScript(l.script)
	tr.script.add(time.Since(t0))
	if job != nil && tr.script.calls%spanSampleEvery == 0 {
		n := 0
		for _, e := range l.d.DecisionTrace(job.ID) {
			if e.Kind == trace.KindSpan {
				n++
			}
		}
		tr.spanSamples++
		tr.spanCount += n
	}
	return job, err
}

func (tr *submitTrace) closeHash(now time.Time) {
	if tr.hashOpen {
		tr.hash.add(now.Sub(tr.hashStart))
		tr.hashOpen = false
	}
}

// noteFallback classifies a fail-open outcome by its cause.
func (tr *submitTrace) noteFallback(err error) {
	if tr == nil {
		return
	}
	switch {
	case errors.Is(err, ecoplugin.ErrBudgetExceeded):
		tr.causes["budget_exceeded"]++
	case err != nil && strings.Contains(err.Error(), "no pre-loaded model"):
		tr.causes["no_preloaded_model"]++
	default:
		tr.causes["other"]++
	}
}

// act runs one operator action: a load-model, or else a set. Its CPU
// time is kept out of the loop's throughput, and traced runs record
// its wall time.
func (l *submitLoop) act(loadModel bool, fn func() error) error {
	c0, t0 := threadCPU(), time.Now()
	err := fn()
	l.actionCPU += threadCPU() - c0
	if l.tr != nil {
		s := &l.tr.setState
		if loadModel {
			s = &l.tr.loadModel
		}
		s.add(time.Since(t0))
	}
	return err
}

// metrics derives the per-layer metrics. Self times are per submission:
// each layer's span minus its children, so they sum to the traced
// SubmitScript span.
func (tr *submitTrace) metrics(l *submitLoop) map[string]metric {
	n := float64(tr.script.calls)
	perSubmit := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	optIns := float64(l.rewritten + l.fallbacks)
	spansPerSubmit := ratio(float64(tr.spanCount), float64(tr.spanSamples))
	tot := l.d.Cluster.Accounting().Totals()
	// Records the tracer emitted: the sampled spans per submission, a
	// job.start and a job.end event per finished job, and one
	// predict.degraded event per fallback.
	records := spansPerSubmit*n + 2*float64(tot.Jobs) + float64(l.fallbacks)

	m := map[string]metric{
		"slurm.submit_script_us":          {perSubmit(tr.script.ns), "us"},
		"slurm.submit_self_us":            {perSubmit(tr.script.ns - tr.jobSubmit.ns), "us"},
		"ecoplugin.job_submit_self_us":    {perSubmit(tr.jobSubmit.ns - tr.load.ns - tr.hash.ns - tr.predict.ns), "us"},
		"ecoplugin.system_hash_us":        {tr.hash.meanUS(), "us"},
		"ecoplugin.system_hash_self_us":   {perSubmit(tr.hash.ns - tr.read.ns), "us"},
		"procfs.read_us":                  {perSubmit(tr.read.ns), "us"},
		"procfs.bytes_read_per_submit":    {float64(tr.bytesRead) / n, "bytes"},
		"settings.load_us":                {tr.load.meanUS(), "us"},
		"settings.loads_per_submit":       {float64(tr.load.calls) / n, "count"},
		"core.predict_us":                 {tr.predict.meanUS(), "us"},
		"core.predict_self_us":            {perSubmit(tr.predict.ns), "us"},
		"core.predict_cache_hit_ratio":    {ratio(float64(tr.predictHits), float64(tr.predict.calls)), "ratio"},
		"core.predict_miss_us":            {tr.predictMiss.meanUS(), "us"},
		"core.predict_fail_us":            {tr.predictFail.meanUS(), "us"},
		"core.load_model_us":              {tr.loadModel.meanUS(), "us"},
		"core.set_state_us":               {tr.setState.meanUS(), "us"},
		"ecoplugin.fallback_ratio":        {ratio(float64(l.fallbacks), optIns), "ratio"},
		"trace.spans_per_submit":          {spansPerSubmit, "count"},
		"trace.dropped_ratio":             {ratio(float64(tr.dropped.Value()-tr.dropped0), records), "ratio"},
		"simclock.advance_us_per_arrival": {tr.advance.meanUS(), "us"},
	}
	for _, cause := range fallbackCauses {
		m["ecoplugin.fallback_ratio."+cause] = metric{ratio(float64(tr.causes[cause]), optIns), "ratio"}
	}
	fmt.Fprintf(os.Stderr, "traced SubmitScript: %.2f us per submission over %d submissions\n", perSubmit(tr.script.ns), tr.script.calls)
	for _, name := range []string{"slurm.submit_self_us", "ecoplugin.job_submit_self_us", "ecoplugin.system_hash_self_us",
		"procfs.read_us", "core.predict_self_us"} {
		fmt.Fprintf(os.Stderr, "  %-32s %9.2f us  %5.1f%%\n", name, m[name].Value, 100*m[name].Value/perSubmit(tr.script.ns))
	}
	loadSelf := perSubmit(tr.load.ns)
	fmt.Fprintf(os.Stderr, "  %-32s %9.2f us  %5.1f%%\n", "settings.load (per submission)", loadSelf, 100*loadSelf/perSubmit(tr.script.ns))
	return m
}

// fallbackCauses are the fail-open causes the traced run tells apart.
var fallbackCauses = []string{"no_preloaded_model", "budget_exceeded", "other"}

// timedPlugin is the eco plugin registered under the benchmark's
// JobSubmitPlugins entry; it times the whole JobSubmit call.
type timedPlugin struct {
	inner *ecoplugin.Plugin
	tr    *submitTrace
}

func (timedPlugin) Name() string { return tracedPluginName }

func (p timedPlugin) JobSubmit(ctx context.Context, desc *slurm.JobDesc, uid uint32) (time.Duration, error) {
	t0 := time.Now()
	lat, err := p.inner.JobSubmit(ctx, desc, uid)
	end := time.Now()
	p.tr.closeHash(end)
	p.tr.jobSubmit.add(end.Sub(t0))
	return lat, err
}

// timedFS times the plugin's /proc reads and opens the SystemHash
// interval at the /proc/cpuinfo read.
type timedFS struct {
	inner procfs.FileReader
	tr    *submitTrace
}

func (f timedFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	if path == procfs.PathCPUInfo && !f.tr.hashOpen {
		f.tr.hashStart, f.tr.hashOpen = t0, true
	}
	data, err := f.inner.ReadFile(path)
	f.tr.read.add(time.Since(t0))
	f.tr.bytesRead += int64(len(data))
	return data, err
}

// timedPredictor times Predict and closes the SystemHash interval.
type timedPredictor struct {
	inner ecoplugin.Predictor
	tr    *submitTrace
}

func (p timedPredictor) Predict(ctx context.Context, req ecoplugin.PredictRequest) (ecoplugin.PredictResult, error) {
	t0 := time.Now()
	p.tr.closeHash(t0)
	res, err := p.inner.Predict(ctx, req)
	d := time.Since(t0)
	p.tr.predict.add(d)
	switch {
	case err != nil:
		p.tr.predictFail.add(d)
	case res.Source == ecoplugin.SourceCache:
		p.tr.predictHits++
	default:
		p.tr.predictMiss.add(d)
	}
	return res, err
}

// timedSettings times the plugin's settings loads.
type timedSettings struct {
	inner settings.Store
	tr    *submitTrace
}

func (s timedSettings) Load() (settings.Settings, error) {
	t0 := time.Now()
	st, err := s.inner.Load()
	s.tr.load.add(time.Since(t0))
	return st, err
}

func (s timedSettings) Save(st settings.Settings) error { return s.inner.Save(st) }
