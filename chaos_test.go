package ecosched

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"ecosched/internal/core"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/fault"
	"ecosched/internal/leakcheck"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// chaosBudget is the submit budget every chaos deployment runs under:
// comfortably above the preloaded path's simulated cost, far below the
// cold path's, so a degraded prediction must stay cheap to fit.
const chaosBudget = 100 * time.Millisecond

const chaosConf = "ClusterName=ecosched\nJobSubmitPlugins=eco\n" +
	"SchedulerParameters=eco_budget=100ms\n"

// chaosSeed reads the CHAOS_SEED environment variable (the CI chaos
// job's matrix axis); unset means seed 1.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// preloadHealthy runs the full warm-up journey — quick sweep, train,
// preload — before any fault rules are installed.
func preloadHealthy(t *testing.T, d *Deployment) {
	t.Helper()
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
}

// optInDesc is the job description the plugin sees for an opted-in
// HPCG submission with the standard (wasteful) request.
func optInDesc(d *Deployment, binary string) slurm.JobDesc {
	if binary == "" {
		binary = d.HPCGPath
	}
	return slurm.JobDesc{
		Name:       "hpcg",
		Script:     "#!/bin/bash\n",
		BinaryPath: binary,
		Comment:    ecoplugin.OptInComment,
		NumTasks:   64,
		MemoryMB:   4096,
		MinFreqKHz: 2_500_000,
		MaxFreqKHz: 2_500_000,
		TimeLimit:  time.Hour,
	}
}

// requireFailOpen submits desc through the plugin and enforces the
// chaos invariants: submit never errors, never exceeds the budget, and
// never yields a partially-rewritten job — the description is either
// untouched or carries the full, coherent Listing 4 rewrite.
func requireFailOpen(t *testing.T, d *Deployment, desc slurm.JobDesc) (slurm.JobDesc, time.Duration) {
	t.Helper()
	orig := desc
	lat, err := d.Plugin.JobSubmit(context.Background(), &desc, 0)
	if err != nil {
		t.Fatalf("submit errored under faults: %v", err)
	}
	if lat > chaosBudget {
		t.Fatalf("submit latency %v exceeds the %v budget", lat, chaosBudget)
	}
	if reflect.DeepEqual(desc, orig) {
		return desc, lat
	}
	patched := orig
	patched.NumTasks = desc.NumTasks
	patched.ThreadsPerCPU = desc.ThreadsPerCPU
	patched.MinFreqKHz = desc.MinFreqKHz
	patched.MaxFreqKHz = desc.MaxFreqKHz
	if !reflect.DeepEqual(patched, desc) {
		t.Fatalf("fields outside the Listing 4 set were mutated:\n  orig: %+v\n  got:  %+v", orig, desc)
	}
	if desc.NumTasks <= 0 || desc.ThreadsPerCPU <= 0 ||
		desc.MinFreqKHz <= 0 || desc.MinFreqKHz != desc.MaxFreqKHz {
		t.Fatalf("incoherent (partial) rewrite: %+v", desc)
	}
	return desc, lat
}

// TestChaosTotalStorageFaultFailsOpen is the issue's acceptance
// criterion: with a 100%% fault rate on every storage and IPMI
// injector, Submit still returns the unmodified job within the
// configured budget, with chronus.predict.degraded incremented and a
// trace event recorded.
func TestChaosTotalStorageFaultFailsOpen(t *testing.T) {
	tracer := trace.New()
	d := newDeployment(t, WithSlurmConf(chaosConf), WithRetryPolicy(core.DefaultRetryPolicy()), WithTracer(tracer))
	if d.Plugin.Budget() != chaosBudget {
		t.Fatalf("plugin budget = %v, conf not threaded", d.Plugin.Budget())
	}
	preloadHealthy(t, d)

	// 100% error rate on every storage and IPMI integration point.
	// Settings stay healthy so the plugin reaches the prediction — the
	// degraded path under test — rather than skipping at the gate.
	d.Fault.Use(
		fault.Rule{Op: "repo.*", Mode: fault.ModeError},
		fault.Rule{Op: "blob.*", Mode: fault.ModeError},
		fault.Rule{Op: "ipmi.*", Mode: fault.ModeError},
		fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError},
	)

	// Plugin-level: the description must come back byte-for-byte
	// unmodified, within budget.
	desc, _ := requireFailOpen(t, d, optInDesc(d, ""))
	if !reflect.DeepEqual(desc, optInDesc(d, "")) {
		t.Fatalf("degraded submit modified the job: %+v", desc)
	}
	if d.Plugin.Rewritten != 0 {
		t.Fatal("plugin reports a rewrite under total storage fault")
	}
	if d.Plugin.Fallbacks == 0 {
		t.Fatal("fail-open path not taken")
	}

	// Cluster-level: the job still runs to completion, at the standard
	// (unrewritten) 2.5 GHz.
	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		t.Fatalf("sbatch lost the job: %v", err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_500_000 {
		t.Fatalf("degraded job ran at %d kHz, want the unmodified 2.5 GHz", rec.FreqKHz)
	}

	// Observability: degraded metric incremented, degraded trace event
	// recorded with a cause, and the injector logged its hits.
	if got := d.Metrics.Counter("chronus.predict.degraded").Value(); got < 1 {
		t.Fatalf("chronus.predict.degraded = %d, want >= 1", got)
	}
	var degradedEvent bool
	for _, ev := range tracer.Recent() {
		if ev.Kind == trace.KindEvent && ev.Name == "chronus.predict.degraded" {
			if ev.Attrs["cause"] == "" {
				t.Fatalf("degraded event missing cause: %+v", ev)
			}
			degradedEvent = true
		}
	}
	if !degradedEvent {
		t.Fatal("no chronus.predict.degraded trace event recorded")
	}
	if len(d.Fault.Injected()) == 0 {
		t.Fatal("injector reports no faults fired")
	}
}

// TestChaosRetryRescuesTransientFault checks the other half of the
// degradation story: a fault schedule that clears after two hits is
// absorbed by the retry policy and the submission is still rewritten.
func TestChaosRetryRescuesTransientFault(t *testing.T) {
	d := newDeployment(t, WithSlurmConf(chaosConf), WithRetryPolicy(core.DefaultRetryPolicy()))
	preloadHealthy(t, d)
	// The first two model reads fail; the third attempt (within the
	// retry policy's three) succeeds.
	d.Fault.Use(fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError, Times: 2})

	desc, _ := requireFailOpen(t, d, optInDesc(d, ""))
	if reflect.DeepEqual(desc, optInDesc(d, "")) {
		t.Fatal("transient fault was not retried: job left unmodified")
	}
	if d.Plugin.Rewritten != 1 {
		t.Fatalf("Rewritten = %d, want 1", d.Plugin.Rewritten)
	}
	if got := d.Metrics.Counter("chronus.retry.model_read").Value(); got != 2 {
		t.Fatalf("chronus.retry.model_read = %d, want 2 backoffs", got)
	}
	if got := d.Metrics.Counter("chronus.predict.degraded").Value(); got != 0 {
		t.Fatalf("rescued prediction counted as degraded (%d)", got)
	}
}

// TestChaosSubmitInvariantsUnderRandomSchedules drives the submit path
// through seed-derived random fault schedules (every injector, every
// mode, random rates) and holds the three invariants of the issue on
// every single submission: never an error, never over budget, never a
// partially-rewritten job.
func TestChaosSubmitInvariantsUnderRandomSchedules(t *testing.T) {
	seed := chaosSeed(t)
	d := newDeployment(t, WithSlurmConf(chaosConf), WithRetryPolicy(core.DefaultRetryPolicy()), WithSeed(seed))
	preloadHealthy(t, d)

	ops := []string{
		"repo.*", "blob.*",
		fault.OpIPMISample, fault.OpModelRead,
		fault.OpSettingsLoad, fault.OpProcRead,
	}
	modes := []fault.Mode{fault.ModeError, fault.ModeLatency, fault.ModeTorn, fault.ModePartial}
	rng := simclock.NewRNG(seed)

	const rounds = 8
	for round := 0; round < rounds; round++ {
		d.Fault.Reset()
		rules := make([]fault.Rule, 1+rng.Intn(4))
		for i := range rules {
			r := fault.Rule{
				Op:   ops[rng.Intn(len(ops))],
				Mode: modes[rng.Intn(len(modes))],
				Rate: 0.25 + 0.75*rng.Float64(),
			}
			if r.Mode == fault.ModeLatency {
				r.Latency = time.Duration(1+rng.Intn(3)) * time.Millisecond
			}
			if rng.Intn(2) == 0 {
				r.After = rng.Intn(3)
			}
			rules[i] = r
		}
		d.Fault.Use(rules...)

		// Three submissions per schedule: the preloaded binary (may be
		// rewritten or degrade, depending on what fires) and two
		// unknown binaries (always fall back, exercising the cold path
		// refusal under faults).
		requireFailOpen(t, d, optInDesc(d, ""))
		for i := 0; i < 2; i++ {
			bin := fmt.Sprintf("/opt/apps/unknown-%d-%d", round, i)
			desc, _ := requireFailOpen(t, d, optInDesc(d, bin))
			if !reflect.DeepEqual(desc, optInDesc(d, bin)) {
				t.Fatalf("round %d: unknown binary was rewritten: %+v", round, desc)
			}
		}
	}
	if d.Plugin.Submissions != rounds*3 {
		t.Fatalf("Submissions = %d, want %d", d.Plugin.Submissions, rounds*3)
	}
}

// TestChaosCloseDrainsWithoutLeak races Deployment.Close against
// in-flight predictions under a fault schedule: Close must drain them
// (including their retry backoffs) and leave no goroutine behind.
func TestChaosCloseDrainsWithoutLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	d, err := New(t.TempDir(), WithRetryPolicy(core.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	preloadHealthy(t, d)
	d.Fault.Use(
		fault.Rule{Op: "repo.*", Mode: fault.ModeError, Rate: 0.5},
		fault.Rule{Op: fault.OpModelRead, Mode: fault.ModeError, Rate: 0.5},
	)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := ecoplugin.PredictRequest{
				SystemHash: "sys",
				BinaryHash: fmt.Sprintf("bin-%d", i),
			}
			// Fail-open: the result does not matter, only that the
			// prediction neither panics nor outlives the drain.
			d.Chronus.Predict.Predict(context.Background(), req) //nolint:errcheck
		}(i)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close during in-flight predictions: %v", err)
	}
	closed = true
	wg.Wait()
}
