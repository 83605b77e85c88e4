package main

import (
	"fmt"
	"os"
	"time"

	"ecosched"
	"ecosched/internal/energymarket"
	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// loadSpec reads one of the benchmark's own spec copies and replaces
// its seed with seed.
func loadSpec(name string, seed uint64) (workload.Spec, error) {
	spec, err := workload.LoadSpec(specPath(name))
	if err != nil {
		return workload.Spec{}, err
	}
	spec.Seed = seed
	return spec, spec.Validate()
}

// clusterOutcome is the part of a cluster run the checks and the
// end-to-end metrics read; RunClusterSpec and the traced re-drive both
// produce one.
type clusterOutcome struct {
	Submissions     int
	Rejected        int
	Totals          slurm.AcctTotals
	Makespan        time.Duration
	ClusterSystemKJ float64
	ClusterCPUKJ    float64
	Policy          slurm.PolicyTotals
	DeadlineMisses  int64
}

func outcomeOf(r *ecosched.ClusterReport) clusterOutcome {
	o := clusterOutcome{
		Submissions: r.Submissions, Rejected: r.Rejected, Totals: r.Totals, Makespan: r.Makespan,
		ClusterSystemKJ: r.ClusterSystemKJ, ClusterCPUKJ: r.ClusterCPUKJ,
	}
	if pl := r.Policy; pl != nil {
		o.Policy = slurm.PolicyTotals{
			CapDenials: pl.CapDenials, FreqCapped: pl.FreqCapped, DeferredJobs: pl.DeferredJobs,
			ForcedDispatches: pl.ForcedDispatches, CoScheduled: pl.CoScheduled, CapViolations: pl.CapViolations,
		}
		o.DeadlineMisses = pl.DeadlineMisses
	}
	return o
}

// check runs the cluster workloads' output checks.
func (o clusterOutcome) check(policy bool) error {
	t := o.Totals
	if got := t.Completed + t.Failed + t.Cancelled + o.Rejected; got != o.Submissions {
		return checkFailed("%d submitted but %d completed + %d failed + %d cancelled + %d rejected = %d",
			o.Submissions, t.Completed, t.Failed, t.Cancelled, o.Rejected, got)
	}
	if o.Rejected != 0 {
		return checkFailed("%d of %d submissions rejected", o.Rejected, o.Submissions)
	}
	if t.Completed == 0 {
		return checkFailed("no job completed")
	}
	if policy && (o.Policy.CapViolations != 0 || o.DeadlineMisses != 0) {
		return checkFailed("%d power-cap violations and %d deadline misses", o.Policy.CapViolations, o.DeadlineMisses)
	}
	return nil
}

func (o clusterOutcome) startedJobs() float64 { return float64(o.Totals.Completed + o.Totals.Failed) }

// subSeeds derives the spec seeds one run cycles through from the run
// seed. A run covers each of them at least once, so the deterministic
// outcomes (energy, wait) average over several streams.
func subSeeds(seed uint64, n int) []uint64 {
	rng := simclock.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// clusterRuns says how many spec seeds a run of each cluster workload
// covers, and how many times at least it runs each. The 1M-submission
// spec's mean wait varies by ≈ 5% from seed to seed, so its run covers
// five seeds, and repeats each to take the median cost. The 4,000
// submissions of the policy spec vary far more: from seed to seed its
// mean wait varies by ≈ 25% and its cost by up to 3×, with the deferral
// holds. Its run covers 64 seeds, once each. The seeds run in turn, so
// one seed's repetitions lie a whole cycle apart.
var clusterRuns = map[string]struct{ seeds, reps int }{
	"cluster-1k-1m.json":  {seeds: 5, reps: 3},
	"powercap-smoke.json": {seeds: 64, reps: 1},
}

func runCluster(p params, specFile string) (result, error) {
	plan := clusterRuns[specFile]
	seeds := subSeeds(p.seed, plan.seeds)
	if p.trace {
		specs := make([]workload.Spec, len(seeds))
		for i, s := range seeds {
			var err error
			if specs[i], err = loadSpec(specFile, s); err != nil {
				return result{}, err
			}
		}
		return runRedrive(p, specs)
	}

	// setUp loads the spec for one spec seed clusterSetupReps times and
	// records the process CPU time of each load.
	var setups []float64
	setUp := func(seed uint64) (workload.Spec, error) {
		var spec workload.Spec
		for i := 0; i < clusterSetupReps; i++ {
			t0 := processCPU()
			var err error
			if spec, err = loadSpec(specFile, seed); err != nil {
				return spec, err
			}
			setups = append(setups, (processCPU() - t0).Seconds())
		}
		return spec, nil
	}

	// The run cycles through the spec seeds until its time is up, each
	// seed at least plan.reps times, and sets up each repetition anew. A
	// seed's cost is the median process CPU time of its repetitions
	// (both lanes, the GC and the runtime), and every repetition must
	// reproduce its outcome.
	outcomes := make([]*clusterOutcome, len(seeds))
	costs := make([][]float64, len(seeds))
	submitted := 0
	var allocated uint64
	start := time.Now()
	for reps := 0; reps < plan.reps*len(seeds) || time.Since(start) < p.seconds; reps++ {
		i := reps % len(seeds)
		spec, err := setUp(seeds[i])
		if err != nil {
			return result{}, err
		}
		a0 := allocBytes()
		t0 := processCPU()
		rep, err := ecosched.RunClusterSpec(spec, nil)
		cpu := (processCPU() - t0).Seconds()
		allocated += allocBytes() - a0
		if err != nil {
			return result{}, err
		}
		o := outcomeOf(rep)
		submitted += o.Submissions
		if err := o.check(spec.Policy != nil); err != nil {
			return result{Attempted: submitted, Failed: o.Rejected}, err
		}
		if outcomes[i] == nil {
			outcomes[i] = &o
		} else if o != *outcomes[i] {
			return result{Attempted: submitted, Failed: o.Rejected},
				checkFailed("a repeated run of spec seed %d diverged: %+v vs %+v", spec.Seed, o, *outcomes[i])
		}
		costs[i] = append(costs[i], cpu)
	}
	allocPerOp := float64(allocated) / float64(submitted)

	var subs, cpu float64
	var energy, wait []float64
	for i, o := range outcomes {
		subs += float64(o.Submissions)
		cpu += median(costs[i])
		energy = append(energy, ratio(o.Totals.SystemKJ, float64(o.Totals.Completed)))
		wait = append(wait, ratio(o.Totals.WaitSeconds, o.startedJobs()))
	}
	rate := subs / cpu
	res := result{Attempted: submitted}
	res.Metrics = map[string]metric{
		"setup_s": {median(setups), "s"},
		// No single submission is timed on the simulator path: both
		// latency metrics report the mean CPU time per submission.
		"submit_p50_us":         {1e6 / rate, "us"},
		"submit_p99_us":         {1e6 / rate, "us"},
		"submits_per_s":         {rate, "1/s"},
		"sim_submissions_per_s": {rate, "1/s"},
		// No eco plugin is on the simulator path: no opt-in submission
		// met a plugin, so none fell back.
		"rewrite_ratio":      {1, "ratio"},
		"job_energy_kj":      {mean(energy), "kJ"},
		"mean_wait_s":        {mean(wait), "s"},
		"alloc_bytes_per_op": {allocPerOp, "bytes"},
	}
	return res, nil
}

// runRedrive is the traced cluster run: the re-drive, repeated for the
// run's duration, with per-layer metrics per submission or per run.
func runRedrive(p params, specs []workload.Spec) (result, error) {
	tr := &simTrace{}
	var (
		pol           slurm.PolicyTotals
		started, subs float64
		reps          int
	)
	start := time.Now()
	for ; reps < len(specs) || time.Since(start) < p.seconds; reps++ {
		spec := specs[reps%len(specs)]
		o, err := redrive(spec, tr)
		if err != nil {
			return result{}, err
		}
		if err := o.check(spec.Policy != nil); err != nil {
			return result{Attempted: int(subs) + o.Submissions, Failed: o.Rejected}, err
		}
		subs += float64(o.Submissions)
		started += o.startedJobs()
		pol.CapDenials += o.Policy.CapDenials
		pol.CoScheduled += o.Policy.CoScheduled
		pol.DeferredJobs += o.Policy.DeferredJobs
	}
	perSub := func(s span) float64 { return float64(s.ns) / subs }
	driverNS := tr.total.ns - tr.next.ns - tr.submit.ns - tr.flush.ns - tr.run.ns - tr.barrier.ns
	perRun := func(n int64) float64 { return float64(n) / float64(reps) }
	res := result{Attempted: int(subs)}
	res.Metrics = map[string]metric{
		"ecosched.redrive_ns_per_sub":       {perSub(tr.total), "ns"},
		"ecosched.driver_self_ns_per_sub":   {float64(driverNS) / subs, "ns"},
		"ecosched.barrier_us_per_window":    {tr.barrier.meanUS(), "us"},
		"workload.next_ns_per_sub":          {perSub(tr.next), "ns"},
		"slurm.submit_desc_ns_per_sub":      {perSub(tr.submit), "ns"},
		"slurm.flush_us_per_pass":           {tr.flush.meanUS(), "us"},
		"slurm.flush_passes":                {float64(tr.flush.calls) / float64(reps), "count"},
		"slurm.queue_depth_mean":            {ratio(float64(tr.depthSum), float64(tr.depthSamples)), "count"},
		"slurm.queue_depth_peak":            {float64(tr.depthPeak), "count"},
		"simclock.run_ns_per_sub":           {perSub(tr.run), "ns"},
		"slurm.policy.cap_denial_ratio":     {ratio(float64(pol.CapDenials), started), "ratio"},
		"slurm.policy.coscheduled":          {perRun(pol.CoScheduled), "count"},
		"slurm.policy.deferred":             {perRun(pol.DeferredJobs), "count"},
		"energymarket.signal_calls_per_sub": {float64(tr.signal.calls) / subs, "count"},
		"energymarket.signal_ns":            {ratio(float64(tr.signal.ns), float64(tr.signal.calls)), "ns"},
	}
	fmt.Fprintf(os.Stderr, "traced re-drive: %d runs, %.1f ns per submission\n", reps, perSub(tr.total))
	for _, l := range []struct {
		name string
		ns   int64
	}{{"workload.Next", tr.next.ns}, {"slurm.SubmitDesc", tr.submit.ns}, {"slurm.Flush", tr.flush.ns},
		{"simclock.RunUntil/RunBefore", tr.run.ns}, {"ecosched barrier (AddUsage)", tr.barrier.ns}, {"driver self", driverNS}} {
		fmt.Fprintf(os.Stderr, "  %-30s %8.1f ns/sub  %5.1f%%\n", l.name, float64(l.ns)/subs, 100*float64(l.ns)/float64(tr.total.ns))
	}
	return res, nil
}

// simTrace collects the traced re-drive's spans. A nil *simTrace
// re-drives untimed.
type simTrace struct {
	total, next, submit, flush, run, barrier, signal span

	depthSum     int64
	depthSamples int
	depthPeak    int
}

// The runCluster constants the re-drive must share: the per-node seed
// stride and the lane window.
const (
	clusterSeedStride = 0x9e3779b9
	laneWindow        = 5 * time.Minute
)

// lane is one partition of the re-driven cluster.
type lane struct {
	name           string
	sim            *simclock.Sim
	ctl            *slurm.Controller
	batch          []workload.Submission
	usage          []usageDelta
	rejected       int
	deadlineMisses int64
	desc           slurm.JobDesc
}

type usageDelta struct {
	uid  uint32
	cpuS float64
}

// since returns the time elapsed since t0 and the current time.
func since(t0 time.Time) (time.Duration, time.Time) {
	now := time.Now()
	return now.Sub(t0), now
}

// redrive runs spec through the same public calls runCluster makes with
// one lane worker — NewCluster, SubmitDesc, QueueDepth, Flush,
// RunUntil/RunBefore, and AddUsage at the window barriers — timing the
// calls into each layer when tr is non-nil. Its outcome must equal
// RunClusterSpec(spec, nil, WithLanes(1))'s (redrive_test.go).
func redrive(spec workload.Spec, tr *simTrace) (clusterOutcome, error) {
	var out clusterOutcome
	begin := time.Now()
	start := simclock.Epoch
	gen, err := workload.NewGenerator(spec, start)
	if err != nil {
		return out, err
	}
	calib := perfmodel.Default()
	spec0 := hw.DefaultSpec()
	var nodes []*hw.Node
	lanes := make([]*lane, 0, len(spec.Cluster.Partitions))
	defaultPart := spec.Cluster.Partitions[0].Name
	totalNodes := spec.TotalNodes()
	idx := 0
	for _, ps := range spec.Cluster.Partitions {
		if ps.Default {
			defaultPart = ps.Name
		}
		ln := &lane{name: ps.Name, sim: simclock.NewAt(start)}
		pool := make([]*hw.Node, ps.Nodes)
		for i := range pool {
			ns := spec0
			ns.Name = fmt.Sprintf("%s-%04d", ps.Name, i+1)
			pool[i] = hw.NewNode(ln.sim, ns, calib, spec.Seed+uint64(idx)*clusterSeedStride+1)
			idx++
		}
		nodes = append(nodes, pool...)
		conf := slurm.DefaultConf()
		conf.ClusterName = spec.Name
		conf.Partitions = []slurm.Partition{{Name: ps.Name, MaxTime: ps.MaxTime.Std(), Default: true}}
		copts := []slurm.ClusterOption{
			slurm.WithPartitionNodes(ps.Name, pool...),
			slurm.WithAggregateAccounting(),
			slurm.WithBatchedScheduling(),
			slurm.WithUsageSink(func(uid uint32, cpuS float64) {
				ln.usage = append(ln.usage, usageDelta{uid: uid, cpuS: cpuS})
			}),
		}
		if ps.Policy == "multifactor" {
			copts = append(copts, slurm.WithPartitionPolicy(ps.Name, slurm.DefaultMultifactor(spec0.Cores)))
		}
		if spec.Policy != nil {
			if pols := lanePolicies(spec.Policy, ps, totalNodes, spec.Seed, tr); len(pols) > 0 {
				copts = append(copts, slurm.WithSchedPolicies(pols...))
			}
		}
		if ln.ctl, err = slurm.NewCluster(ln.sim, conf, copts...); err != nil {
			return out, err
		}
		if spec.Policy != nil {
			ln.ctl.OnCompletion(func(j *slurm.Job) {
				if j.State == slurm.StateCancelled && j.Reason == "DeadlineUnsatisfiable" {
					ln.deadlineMisses++
				}
			})
		}
		lanes = append(lanes, ln)
	}
	laneFor := func(name string) *lane {
		for _, ln := range lanes {
			if ln.name == name {
				return ln
			}
		}
		return nil
	}

	var pending workload.Submission
	next := func() (bool, error) {
		if tr == nil {
			return gen.NextInto(&pending)
		}
		t0 := time.Now()
		ok, err := gen.NextInto(&pending)
		tr.next.add(time.Since(t0))
		return ok, err
	}
	ok, err := next()
	if err != nil {
		return out, err
	}
	lastArrival := start
	windowEnd := start
	for {
		windowEnd = windowEnd.Add(laneWindow)
		for ok && pending.At.Before(windowEnd) {
			out.Submissions++
			lastArrival = pending.At
			part := pending.Partition
			if part == "" {
				part = defaultPart
			}
			if ln := laneFor(part); ln != nil {
				ln.batch = append(ln.batch, pending)
			} else {
				out.Rejected++
			}
			if ok, err = next(); err != nil {
				return out, err
			}
		}
		active := 0
		for _, ln := range lanes {
			if len(ln.batch) == 0 && ln.sim.Pending() == 0 {
				continue
			}
			active++
			ln.runWindow(windowEnd, tr)
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		for _, ln := range lanes {
			if len(ln.usage) == 0 {
				continue
			}
			for _, other := range lanes {
				if other == ln {
					continue
				}
				for _, d := range ln.usage {
					other.ctl.AddUsage(d.uid, d.cpuS)
				}
			}
			ln.usage = ln.usage[:0]
		}
		if tr != nil {
			tr.barrier.add(time.Since(t0))
		}
		if !ok && active == 0 {
			break
		}
	}

	last := lastArrival
	for _, ln := range lanes {
		if le := ln.sim.LastEventAt(); le.After(last) {
			last = le
		}
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	for _, ln := range lanes {
		ln.sim.RunUntil(last)
	}
	if tr != nil {
		tr.run.add(time.Since(t0))
	}
	out.Makespan = last.Sub(start)
	for _, ln := range lanes {
		out.Rejected += ln.rejected
		t := ln.ctl.Accounting().Totals()
		out.Totals.Jobs += t.Jobs
		out.Totals.Completed += t.Completed
		out.Totals.Failed += t.Failed
		out.Totals.Cancelled += t.Cancelled
		out.Totals.SystemKJ += t.SystemKJ
		out.Totals.CPUKJ += t.CPUKJ
		out.Totals.CPUSeconds += t.CPUSeconds
		out.Totals.RuntimeSeconds += t.RuntimeSeconds
		out.Totals.WaitSeconds += t.WaitSeconds
		if spec.Policy != nil {
			pt := ln.ctl.PolicyTotals()
			out.Policy.CapDenials += pt.CapDenials
			out.Policy.FreqCapped += pt.FreqCapped
			out.Policy.DeferredJobs += pt.DeferredJobs
			out.Policy.ForcedDispatches += pt.ForcedDispatches
			out.Policy.CoScheduled += pt.CoScheduled
			out.Policy.CapViolations += pt.CapViolations
			out.DeadlineMisses += ln.deadlineMisses
		}
	}
	for _, n := range nodes {
		sysJ, cpuJ := n.EnergyJ()
		out.ClusterSystemKJ += sysJ / 1000
		out.ClusterCPUKJ += cpuJ / 1000
	}
	if tr != nil {
		tr.total.add(time.Since(begin))
	}
	return out, nil
}

// runWindow admits the lane's arrivals of one window at their instants
// and advances the lane to the window boundary, as runCluster's lanes
// do: queue depth sampled after each submission, one Flush per distinct
// arrival instant.
func (ln *lane) runWindow(windowEnd time.Time, tr *simTrace) {
	for i := range ln.batch {
		s := &ln.batch[i]
		d := &ln.desc
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		ln.sim.RunUntil(s.At)
		if tr != nil {
			var el time.Duration
			el, t0 = since(t0)
			tr.run.add(el)
		}
		d.Name = s.JobName
		d.Comment = s.Comment
		d.NumTasks = s.Tasks
		d.ThreadsPerCPU = s.ThreadsPerCPU
		d.TimeLimit = s.TimeLimit
		d.Partition = ln.name
		d.UserID = s.UserID
		d.Shape = &s.Shape
		d.Exclusive = s.Exclusive
		d.Deferrable = s.Deferrable
		d.Deadline = s.Deadline
		if tr != nil {
			t0 = time.Now()
		}
		_, err := ln.ctl.SubmitDesc(d)
		if tr != nil {
			var el time.Duration
			el, t0 = since(t0)
			tr.submit.add(el)
		}
		if err != nil {
			ln.rejected++
		} else if tr != nil {
			depth := ln.ctl.QueueDepth(ln.name)
			tr.depthSum += int64(depth)
			tr.depthSamples++
			if depth > tr.depthPeak {
				tr.depthPeak = depth
			}
		}
		if i+1 == len(ln.batch) || !ln.batch[i+1].At.Equal(s.At) {
			if tr != nil {
				t0 = time.Now()
			}
			ln.ctl.Flush()
			if tr != nil {
				tr.flush.add(time.Since(t0))
			}
		}
	}
	ln.batch = ln.batch[:0]
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	ln.sim.RunBefore(windowEnd)
	if tr != nil {
		tr.run.add(time.Since(t0))
	}
}

// lanePolicies instantiates the spec's policy block for one lane as
// runCluster does: the cluster cap prorated by the global node count,
// lowered by an explicit partition entry. The deferral signal is
// wrapped to count and time its calls when tr is non-nil.
func lanePolicies(pol *workload.PolicySpec, ps workload.PartitionSpec, totalNodes int, seed uint64, tr *simTrace) []slurm.SchedPolicy {
	var out []slurm.SchedPolicy
	capW := 0.0
	if pol.PowerCapW > 0 && totalNodes > 0 {
		capW = pol.PowerCapW * float64(ps.Nodes) / float64(totalNodes)
	}
	for _, e := range pol.PartitionCapsW {
		if e.Name == ps.Name && (capW == 0 || e.CapW < capW) {
			capW = e.CapW
		}
	}
	if capW > 0 {
		out = append(out, &slurm.PowerCapPolicy{
			PartitionCapsW: []slurm.PartitionCapW{{Partition: ps.Name, CapW: capW}},
			Mode:           pol.CapMode,
		})
	}
	if pol.CoSchedule {
		out = append(out, &slurm.CoSchedulePolicy{InterferencePenalty: pol.InterferencePenalty})
	}
	if d := pol.Deferral; d != nil {
		m := energymarket.New(seed)
		var signal slurm.DeferralSignal = m.Price
		if d.Signal == workload.SignalCarbon {
			signal = m.CarbonIntensity
		}
		if tr != nil {
			inner := signal
			signal = func(t time.Time) float64 {
				t0 := time.Now()
				v := inner(t)
				tr.signal.add(time.Since(t0))
				return v
			}
		}
		out = append(out, &slurm.DeferralPolicy{
			Signal:    signal,
			Threshold: d.Threshold,
			MaxDefer:  d.MaxDefer.Std(),
			Check:     d.Check.Std(),
		})
	}
	return out
}
