// Command perfbench is the repository benchmark. It drives the two hot
// paths of the system — the eco plugin's submit path and the cluster
// simulator — through four workloads, checks their outputs, and prints
// one JSON result line:
//
//	perfbench -workload submit -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured
// with no benchmark instrumentation on the path. With -trace 1 the same
// workload runs with timing decorators around the calls into each
// layer, and the result carries the per-layer metrics instead. NOTES.md
// maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the inputs every workload receives.
type params struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string // the run's scratch directory
}

// buildDir holds everything a run writes, relative to the checkout root
// the benchmark runs from.
const buildDir = ".bench_build"

// workloads maps a workload name to its runner. A runner returns its
// result and the first failed output check (nil when all pass).
var workloads = map[string]func(params) (result, error){
	"submit":         func(p params) (result, error) { return runSubmit(p, false) },
	"submit-churn":   func(p params) (result, error) { return runSubmit(p, true) },
	"cluster":        func(p params) (result, error) { return runCluster(p, "cluster-1k-1m.json") },
	"cluster-policy": func(p params) (result, error) { return runCluster(p, "powercap-smoke.json") },
}

func main() {
	name := flag.String("workload", "", "workload: submit, submit-churn, cluster or cluster-policy")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured duration of the run, in seconds")
	traced := flag.Int("trace", 0, "1 runs with per-layer timing and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload submit|submit-churn|cluster|cluster-policy -seed N (N > 0) -seconds S -trace 0|1")
		os.Exit(2)
	}
	warmHost(hostWarmup)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		workdir: dir,
	})
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rmErr)
	}
	if err == nil {
		err = complete(&res, *traced == 1)
	}
	var checkErr *checkError
	switch {
	case errors.As(err, &checkErr):
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	default:
		res.Correct = true
	}
	if res.Metrics == nil { // a check failed before any metric was taken
		res.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostWarmup is how long the run keeps every CPU busy before set-up.
// On a 2-vCPU virtual machine, both CPUs turning busy from idle can run
// at half speed for up to ≈ 1.4 s (a spinning-loop calibration shows it
// on one cold start in three); set-up and the timed phase must not
// depend on whether that spell hit them.
const hostWarmup = 2 * time.Second

// warmHost keeps every CPU busy for d: the calling goroutine and one
// more per further CPU. It returns once all have stopped.
func warmHost(d time.Duration) {
	deadline := time.Now().Add(d)
	spin := func() {
		x := uint64(1)
		for time.Now().Before(deadline) {
			for j := 0; j < 1<<16; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		warmSink.Add(x)
	}
	var wg sync.WaitGroup
	for i := 1; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin()
		}()
	}
	spin()
	wg.Wait()
}

// warmSink keeps the warm-up arithmetic from being optimised away.
var warmSink atomic.Uint64

// checkError is a failed output check: the run completed, but the
// program's outputs were wrong.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// metricSpec names a metric of the result line and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of untraced runs, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"submit_p50_us", "us"}, {"submit_p99_us", "us"},
	{"submits_per_s", "1/s"}, {"sim_submissions_per_s", "1/s"}, {"rewrite_ratio", "ratio"},
	{"job_energy_kj", "kJ"}, {"mean_wait_s", "s"}, {"alloc_bytes_per_op", "bytes"},
}

// perLayer are the metrics of traced runs. A workload reports the
// layers on its path; the layers of the other path read 0.
var perLayer = []metricSpec{
	// Submit path, per submission unless named per call.
	{"slurm.submit_script_us", "us"}, {"slurm.submit_self_us", "us"},
	{"ecoplugin.job_submit_self_us", "us"}, {"ecoplugin.system_hash_us", "us"},
	{"ecoplugin.system_hash_self_us", "us"}, {"procfs.read_us", "us"},
	{"procfs.bytes_read_per_submit", "bytes"}, {"settings.load_us", "us"},
	{"settings.loads_per_submit", "count"}, {"core.predict_us", "us"}, {"core.predict_self_us", "us"},
	{"core.predict_cache_hit_ratio", "ratio"}, {"core.predict_miss_us", "us"},
	{"core.predict_fail_us", "us"}, {"core.load_model_us", "us"}, {"core.set_state_us", "us"},
	{"ecoplugin.fallback_ratio", "ratio"}, {"ecoplugin.fallback_ratio.no_preloaded_model", "ratio"},
	{"ecoplugin.fallback_ratio.budget_exceeded", "ratio"}, {"ecoplugin.fallback_ratio.other", "ratio"},
	{"trace.spans_per_submit", "count"}, {"trace.dropped_ratio", "ratio"},
	{"simclock.advance_us_per_arrival", "us"},
	// Cluster simulator.
	{"ecosched.redrive_ns_per_sub", "ns"}, {"ecosched.driver_self_ns_per_sub", "ns"},
	{"ecosched.barrier_us_per_window", "us"}, {"workload.next_ns_per_sub", "ns"},
	{"slurm.submit_desc_ns_per_sub", "ns"}, {"slurm.flush_us_per_pass", "us"},
	{"slurm.flush_passes", "count"}, {"slurm.queue_depth_mean", "count"},
	{"slurm.queue_depth_peak", "count"}, {"simclock.run_ns_per_sub", "ns"},
	{"slurm.policy.cap_denial_ratio", "ratio"}, {"slurm.policy.coscheduled", "count"},
	{"slurm.policy.deferred", "count"}, {"energymarket.signal_calls_per_sub", "count"},
	{"energymarket.signal_ns", "ns"},
}

// complete makes the result carry exactly the metric set of its mode:
// off-path per-layer metrics are filled with 0, and any metric outside
// the set, or an end-to-end metric missing, is an error.
func complete(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	known := map[string]bool{}
	for _, m := range want {
		known[m.name] = true
		got, ok := res.Metrics[m.name]
		switch {
		case !ok && traced:
			res.Metrics[m.name] = metric{0, m.unit}
		case !ok:
			return fmt.Errorf("metric %s not measured", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s in %s, want %s", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.name, got.Value)
		}
	}
	for name := range res.Metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// setupReps is how many times a submit run repeats its set-up before
// the loop; setup_s is the median. A cluster run's set-up is a spec
// load of some tens of microseconds. It loads the spec clusterSetupReps
// times before each repetition, and setup_s is the median of all those
// loads: the host's speed moves in spells of seconds, and a burst of
// loads at the start reads only the spell it falls in.
const (
	setupReps        = 9
	clusterSetupReps = 10
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocBytes reports the bytes allocated by the process so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// specPath resolves one of the benchmark's own spec copies. The
// benchmark runs from the repository root or from its own directory.
func specPath(name string) string {
	for _, dir := range []string{filepath.Join("perfbench", "specs"), "specs"} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return filepath.Join("perfbench", "specs", name)
}
