package slurm

import (
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// newPolicyCluster builds a single-partition cluster with dedicated
// nodes and the given energy policies attached. The plain newCluster
// helper shares one node pool and attaches no energy policy.
func newPolicyCluster(t *testing.T, nodeCount int, pols ...SchedPolicy) (*simclock.Sim, *Controller) {
	t.Helper()
	sim := simclock.New()
	c, err := tryPolicyCluster(sim, nodeCount, pols...)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c
}

func tryPolicyCluster(sim *simclock.Sim, nodeCount int, pols ...SchedPolicy) (*Controller, error) {
	nodes := make([]*hw.Node, nodeCount)
	for i := range nodes {
		spec := hw.DefaultSpec()
		spec.Name = spec.Name + string(rune('a'+i))
		nodes[i] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(i+1))
	}
	return NewCluster(sim, DefaultConf(),
		WithPartitionNodes("batch", nodes...),
		WithSchedPolicies(pols...))
}

// sleepDesc is a fixed-duration job: runtime is independent of the
// frequency the cap pins, so test timings stay exact.
func sleepDesc(tasks int, d time.Duration, profile string) JobDesc {
	return JobDesc{
		Name: "sleep", NumTasks: tasks, TimeLimit: 2 * d,
		Shape: &workload.Shape{Kind: workload.ShapeSleep, Label: "sleep", Duration: d, Profile: profile},
	}
}

// testLadderWatts returns the idle node draw and the placement deltas
// of a full-width single-thread job at each frequency rung — the knobs
// the cap tests size their budgets with.
func testLadderWatts() (idleW float64, deltas []float64) {
	pm := NewPowerModel(perfmodel.Default())
	spec := hw.DefaultSpec()
	for _, f := range spec.FrequenciesKHz {
		deltas = append(deltas, pm.PlacementDeltaW(perfmodel.Config{
			Cores: spec.Cores, FreqKHz: f, ThreadsPerCore: 1,
		}))
	}
	return pm.IdleNodeW(), deltas
}

func TestPowerModelLadderMonotone(t *testing.T) {
	idle, deltas := testLadderWatts()
	if idle <= 0 {
		t.Fatalf("IdleNodeW = %g, want > 0", idle)
	}
	for i, d := range deltas {
		if d <= 0 {
			t.Fatalf("rung %d delta = %g W, want > 0", i, d)
		}
		if i > 0 && d <= deltas[i-1] {
			t.Fatalf("ladder deltas not increasing: %v", deltas)
		}
	}
	pm := NewPowerModel(perfmodel.Default())
	cfg := perfmodel.Config{Cores: 32, FreqKHz: 2_500_000, ThreadsPerCore: 1}
	if got := pm.ActiveNodeW(cfg); got <= pm.IdleNodeW() {
		t.Fatalf("ActiveNodeW = %g, not above idle %g", got, pm.IdleNodeW())
	}
	if got := pm.CPUDeltaW(cfg); got <= 0 {
		t.Fatalf("CPUDeltaW = %g, want > 0", got)
	}
}

func TestPolicyAttachValidation(t *testing.T) {
	idle, _ := testLadderWatts()
	cases := []struct {
		name string
		pol  SchedPolicy
		want string // error substring; "" = must attach cleanly
	}{
		{"bad cap mode", &PowerCapPolicy{ClusterCapW: 1000, Mode: "turbo"}, `power-cap mode "turbo"`},
		{"negative cap", &PowerCapPolicy{ClusterCapW: -5}, "negative cluster power cap"},
		{"no budget", &PowerCapPolicy{}, "needs a cluster or partition budget"},
		{"unknown partition", &PowerCapPolicy{PartitionCapsW: []PartitionCapW{{Partition: "gpu", CapW: 500}}}, `unknown partition "gpu"`},
		{"non-positive partition cap", &PowerCapPolicy{PartitionCapsW: []PartitionCapW{{Partition: "batch", CapW: 0}}}, "must be > 0 W"},
		{"cap below idle floor", &PowerCapPolicy{ClusterCapW: idle * 0.5}, "no job could ever start"},
		{"cap at idle floor", &PowerCapPolicy{PartitionCapsW: []PartitionCapW{{Partition: "batch", CapW: idle}}}, "no job could ever start"},
		{"penalty below one", &CoSchedulePolicy{InterferencePenalty: 0.5}, "interference penalty 0.5 < 1"},
		{"deferral without signal", &DeferralPolicy{Threshold: 1, MaxDefer: time.Hour}, "needs a signal"},
		{"deferral without threshold", &DeferralPolicy{Signal: func(time.Time) float64 { return 0 }, MaxDefer: time.Hour}, "threshold must be > 0"},
		{"deferral without max defer", &DeferralPolicy{Signal: func(time.Time) float64 { return 0 }, Threshold: 1}, "max defer > 0"},
		{"negative deferral check", &DeferralPolicy{Signal: func(time.Time) float64 { return 0 }, Threshold: 1, MaxDefer: time.Hour, Check: -time.Minute}, "negative deferral check"},
		{"valid combo", &PowerCapPolicy{ClusterCapW: idle + 200, Mode: CapModeFreqCap}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tryPolicyCluster(simclock.New(), 1, tc.pol)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("attach: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestPoliciesFromSpec(t *testing.T) {
	if ps, err := PoliciesFromSpec(nil, nil); err != nil || ps != nil {
		t.Fatalf("nil spec: %v, %v", ps, err)
	}
	spec := &workload.PolicySpec{
		PowerCapW:      5000,
		PartitionCapsW: []workload.PartitionCap{{Name: "debug", CapW: 800}},
		CapMode:        "freqcap",
		CoSchedule:     true,
		Deferral:       &workload.DeferralSpec{Signal: workload.SignalPrice, Threshold: 0.3, MaxDefer: workload.Duration(4 * time.Hour)},
	}
	if _, err := PoliciesFromSpec(spec, nil); err == nil {
		t.Fatal("deferral without a signal accepted")
	}
	sig := func(time.Time) float64 { return 0 }
	pols, err := PoliciesFromSpec(spec, sig)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pols {
		names = append(names, p.Name())
	}
	if got := strings.Join(names, "+"); got != "powercap+cosched+deferral" {
		t.Fatalf("policies = %s", got)
	}
	pc := pols[0].(*PowerCapPolicy)
	if pc.ClusterCapW != 5000 || pc.Mode != CapModeFreqCap || len(pc.PartitionCapsW) != 1 || pc.PartitionCapsW[0].CapW != 800 {
		t.Fatalf("power cap policy = %+v", pc)
	}
}

func TestPowerCapWaitDeniesThenReleases(t *testing.T) {
	idle, deltas := testLadderWatts()
	maxDelta := deltas[len(deltas)-1]
	// Two nodes, budget for exactly one full-width job at ladder max.
	cap := 2*idle + 1.5*maxDelta
	sim, c := newPolicyCluster(t, 2, &PowerCapPolicy{ClusterCapW: cap})

	j1, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateRunning {
		t.Fatalf("job 1 = %s (%s), want RUNNING", j1.State, j1.Reason)
	}
	if j2.State != StatePending || j2.Reason != reasonPowerCap {
		t.Fatalf("job 2 = %s (%q), want PENDING/PowerCap", j2.State, j2.Reason)
	}
	draw, peak, capW := c.PartitionDrawW("batch")
	if capW != cap {
		t.Fatalf("capW = %g, want %g", capW, cap)
	}
	if draw > cap || peak > cap {
		t.Fatalf("draw %g / peak %g exceed cap %g", draw, peak, cap)
	}

	sim.Run()
	if j1.State != StateCompleted || j2.State != StateCompleted {
		t.Fatalf("end states: %s, %s", j1.State, j2.State)
	}
	// The denied job could only start after the first finished.
	if j2.StartTime.Before(j1.EndTime) {
		t.Fatalf("job 2 started %v before job 1 ended %v", j2.StartTime, j1.EndTime)
	}
	tot := c.PolicyTotals()
	if tot.CapDenials == 0 {
		t.Fatal("no cap denials counted")
	}
	if tot.CapViolations != 0 {
		t.Fatalf("CapViolations = %d", tot.CapViolations)
	}
	if draw, _, _ := c.PartitionDrawW("batch"); draw != 2*idle {
		t.Fatalf("draw after drain = %g, want idle floor %g", draw, 2*idle)
	}
}

func TestPowerCapFreqCapPinsLadder(t *testing.T) {
	idle, deltas := testLadderWatts()
	// Budget between the lowest and middle rung: an unpinned job fits
	// only at the lowest frequency.
	cap := idle + (deltas[0]+deltas[1])/2
	sim, c := newPolicyCluster(t, 1, &PowerCapPolicy{ClusterCapW: cap, Mode: CapModeFreqCap})

	lowest := hw.DefaultSpec().FrequenciesKHz[0]
	j, err := c.Submit(sleepDesc(32, 10*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("job = %s (%s), want RUNNING", j.State, j.Reason)
	}
	if j.Desc.MaxFreqKHz != lowest || j.Desc.MinFreqKHz != lowest {
		t.Fatalf("pinned to %d..%d kHz, want %d", j.Desc.MinFreqKHz, j.Desc.MaxFreqKHz, lowest)
	}
	if tot := c.PolicyTotals(); tot.FreqCapped != 1 {
		t.Fatalf("FreqCapped = %d", tot.FreqCapped)
	}
	sim.Run()

	// An explicit --cpu-freq request is honoured, never silently
	// down-pinned: over budget it waits instead.
	top := hw.DefaultSpec().FrequenciesKHz[len(hw.DefaultSpec().FrequenciesKHz)-1]
	desc := sleepDesc(32, 10*time.Minute, "")
	desc.MaxFreqKHz, desc.MinFreqKHz = top, top
	j2, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StatePending || j2.Reason != reasonPowerCap {
		t.Fatalf("pinned job = %s (%q), want PENDING/PowerCap", j2.State, j2.Reason)
	}
	if tot := c.PolicyTotals(); tot.FreqCapped != 1 {
		t.Fatalf("FreqCapped grew to %d on an explicit request", tot.FreqCapped)
	}
}

func TestCoSchedulePairsComplementaryProfiles(t *testing.T) {
	sim, c := newPolicyCluster(t, 1, &CoSchedulePolicy{})

	pri, err := c.Submit(sleepDesc(16, 20*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if pri.State != StateRunning {
		t.Fatalf("primary = %s (%s)", pri.State, pri.Reason)
	}
	// Same profile never pairs.
	same, err := c.Submit(sleepDesc(4, 5*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if same.State != StatePending {
		t.Fatalf("same-profile job = %s, want PENDING", same.State)
	}
	// Unprofiled never pairs.
	plain, err := c.Submit(sleepDesc(4, 5*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if plain.State != StatePending {
		t.Fatalf("unprofiled job = %s, want PENDING", plain.State)
	}
	// Exclusive never pairs, even with the complementary profile.
	excl := sleepDesc(4, 5*time.Minute, workload.ProfileMemory)
	excl.Exclusive = true
	ej, err := c.Submit(excl)
	if err != nil {
		t.Fatal(err)
	}
	if ej.State != StatePending {
		t.Fatalf("exclusive job = %s, want PENDING", ej.State)
	}
	// The complementary profile pairs onto the busy node.
	sec, err := c.Submit(sleepDesc(8, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if sec.State != StateRunning {
		t.Fatalf("secondary = %s (%s), want RUNNING", sec.State, sec.Reason)
	}
	if sec.NodeName != pri.NodeName {
		t.Fatalf("secondary on %q, primary on %q", sec.NodeName, pri.NodeName)
	}
	if tot := c.PolicyTotals(); tot.CoScheduled != 1 {
		t.Fatalf("CoScheduled = %d", tot.CoScheduled)
	}

	sim.Run()
	for _, j := range []*Job{pri, same, plain, ej, sec} {
		if j.State != StateCompleted {
			t.Fatalf("job %d ended %s (%s)", j.ID, j.State, j.Reason)
		}
	}
	// The secondary's energy comes from the power model, not the hw
	// stack (which runs only the primary).
	if sec.SystemJ <= 0 || sec.CPUJ <= 0 {
		t.Fatalf("secondary energy %g J system / %g J CPU, want > 0", sec.SystemJ, sec.CPUJ)
	}
	if sec.CPUJ >= sec.SystemJ {
		t.Fatalf("secondary CPU energy %g J not below system %g J", sec.CPUJ, sec.SystemJ)
	}
}

func TestCoScheduleRespectsTaskCapacity(t *testing.T) {
	_, c := newPolicyCluster(t, 1, &CoSchedulePolicy{})
	pri, err := c.Submit(sleepDesc(30, 20*time.Minute, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if pri.State != StateRunning {
		t.Fatalf("primary = %s", pri.State)
	}
	// 30 + 8 > 32 cores: no room beside the primary.
	sec, err := c.Submit(sleepDesc(8, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if sec.State != StatePending {
		t.Fatalf("oversized secondary = %s, want PENDING", sec.State)
	}
}

func TestDeferralHoldsUntilSignalDrops(t *testing.T) {
	sim := simclock.New()
	start := sim.Now()
	cheapAt := start.Add(time.Hour)
	signal := func(t time.Time) float64 {
		if t.Before(cheapAt) {
			return 1.0
		}
		return 0.1
	}
	c, err := tryPolicyCluster(sim, 1, &DeferralPolicy{
		Signal: signal, Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	desc := sleepDesc(8, 30*time.Minute, "")
	desc.Deferrable = true
	j, err := c.Submit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StatePending || j.Reason != reasonEnergyHold {
		t.Fatalf("job = %s (%q), want PENDING/EnergyHold", j.State, j.Reason)
	}
	// A non-deferrable job sails through the same queue meanwhile: the
	// hold applies per job, not per partition.
	eager, err := c.Submit(sleepDesc(4, 5*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	if eager.State != StateRunning {
		t.Fatalf("non-deferrable job = %s (%s)", eager.State, eager.Reason)
	}

	sim.Run()
	if j.State != StateCompleted {
		t.Fatalf("deferred job ended %s (%s)", j.State, j.Reason)
	}
	// Re-checks run on the 10-minute cadence, so the job starts exactly
	// when the first check at or past the signal drop fires.
	if !j.StartTime.Equal(cheapAt) {
		t.Fatalf("started %v, want %v", j.StartTime, cheapAt)
	}
	tot := c.PolicyTotals()
	if tot.DeferredJobs != 1 || tot.ForcedDispatches != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestDeferralForcedDispatch(t *testing.T) {
	alwaysHigh := func(time.Time) float64 { return 1.0 }

	t.Run("max defer bound", func(t *testing.T) {
		sim := simclock.New()
		c, err := tryPolicyCluster(sim, 1, &DeferralPolicy{
			Signal: alwaysHigh, Threshold: 0.5, MaxDefer: time.Hour, Check: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		desc := sleepDesc(8, 20*time.Minute, "")
		desc.Deferrable = true
		j, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		submit := j.SubmitTime
		sim.Run()
		if j.State != StateCompleted {
			t.Fatalf("job ended %s (%s)", j.State, j.Reason)
		}
		if want := submit.Add(time.Hour); !j.StartTime.Equal(want) {
			t.Fatalf("started %v, want max-defer bound %v", j.StartTime, want)
		}
		tot := c.PolicyTotals()
		if tot.DeferredJobs != 1 || tot.ForcedDispatches != 1 {
			t.Fatalf("totals = %+v", tot)
		}
	})

	t.Run("deadline bound", func(t *testing.T) {
		sim := simclock.New()
		c, err := tryPolicyCluster(sim, 1, &DeferralPolicy{
			Signal: alwaysHigh, Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		desc := sleepDesc(8, 20*time.Minute, "")
		desc.Deferrable = true
		desc.TimeLimit = 30 * time.Minute
		desc.Deadline = sim.Now().Add(90 * time.Minute)
		j, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if j.State != StateCompleted {
			t.Fatalf("job ended %s (%s)", j.State, j.Reason)
		}
		// Released at Deadline − TimeLimit, leaving room for the worst
		// allowed runtime.
		if want := desc.Deadline.Add(-desc.TimeLimit); !j.StartTime.Equal(want) {
			t.Fatalf("started %v, want deadline slack bound %v", j.StartTime, want)
		}
		if j.EndTime.After(desc.Deadline) {
			t.Fatalf("job finished %v after its deadline %v", j.EndTime, desc.Deadline)
		}
		if tot := c.PolicyTotals(); tot.ForcedDispatches != 1 {
			t.Fatalf("ForcedDispatches = %d", tot.ForcedDispatches)
		}
	})
}

func TestPolicyAccessors(t *testing.T) {
	idle, _ := testLadderWatts()
	_, c := newPolicyCluster(t, 2,
		&PowerCapPolicy{ClusterCapW: 2*idle + 500},
		&CoSchedulePolicy{},
	)
	if got := strings.Join(c.ActivePolicies(), "+"); got != "powercap+cosched" {
		t.Fatalf("ActivePolicies = %s", got)
	}
	if d, p, w := c.PartitionDrawW("nope"); d != 0 || p != 0 || w != 0 {
		t.Fatalf("unknown partition draw = %g/%g/%g", d, p, w)
	}
	draw, peak, capW := c.PartitionDrawW("batch")
	if draw != 2*idle || peak != 2*idle {
		t.Fatalf("idle cluster draw %g / peak %g, want %g", draw, peak, 2*idle)
	}
	if capW != 2*idle+500 {
		t.Fatalf("capW = %g", capW)
	}

	// Without the policy layer the accessors report inactive zeros.
	_, plain := newCluster(t, DefaultConf(), 1)
	if got := plain.ActivePolicies(); len(got) != 0 {
		t.Fatalf("plain controller policies = %v", got)
	}
	if d, p, w := plain.PartitionDrawW("batch"); d != 0 || p != 0 || w != 0 {
		t.Fatalf("plain controller draw = %g/%g/%g", d, p, w)
	}
}

func TestDeferralSignalReadOncePerInstant(t *testing.T) {
	sim := simclock.New()
	cheapAt := sim.Now().Add(time.Hour)
	reads := map[int64]int{}
	signal := func(at time.Time) float64 {
		reads[at.UnixNano()]++
		if at.Before(cheapAt) {
			return 1.0
		}
		return 0.1
	}
	c, err := tryPolicyCluster(sim, 1, &DeferralPolicy{
		Signal: signal, Threshold: 0.5, MaxDefer: 6 * time.Hour, Check: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three held jobs and a job that runs: every submission runs a pass
	// over the whole queue at the same instant, and each pass visits
	// every held job.
	var jobs []*Job
	for i := 0; i < 3; i++ {
		desc := sleepDesc(8, 20*time.Minute, "")
		desc.Deferrable = true
		j, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	eager, err := c.Submit(sleepDesc(4, 5*time.Minute, ""))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for _, j := range append(jobs, eager) {
		if j.State != StateCompleted {
			t.Fatalf("job %d ended %s (%s)", j.ID, j.State, j.Reason)
		}
	}
	if len(reads) < 2 {
		t.Fatalf("signal read at %d instants, want the submit instant and the re-checks", len(reads))
	}
	for at, n := range reads {
		if n > 1 {
			t.Fatalf("signal read %d times at %v, want at most once per instant", n, time.Unix(0, at).UTC())
		}
	}
	if tot := c.PolicyTotals(); tot.DeferredJobs != 3 {
		t.Fatalf("DeferredJobs = %d, want 3", tot.DeferredJobs)
	}
}

func TestCoSchedulePairsBesidePrimaryStartedMidPass(t *testing.T) {
	sim := simclock.New()
	// Two nodes: the first with twice the memory, so a memory-hungry
	// job fits only there.
	big := hw.DefaultSpec()
	big.Name = "bigmem"
	big.RAMGB *= 2
	small := hw.DefaultSpec()
	small.Name = "small"
	c, err := NewCluster(sim, DefaultConf(), WithPartitionNodes("batch",
		hw.NewNode(sim, big, perfmodel.Default(), 1),
		hw.NewNode(sim, small, perfmodel.Default(), 2),
	), WithSchedPolicies(&CoSchedulePolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	submit := func(d JobDesc) *Job {
		t.Helper()
		j, err := c.Submit(d)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	cores := big.Cores
	// A compute primary fills all but 4 cores of the big node; an
	// unprofiled job holds the small node for ten minutes.
	pri := submit(sleepDesc(cores-4, 2*time.Hour, workload.ProfileCompute))
	holder := submit(sleepDesc(8, 10*time.Minute, ""))
	if pri.NodeName != big.Name || holder.NodeName != small.Name {
		t.Fatalf("placement: primary on %q, holder on %q", pri.NodeName, holder.NodeName)
	}
	// Queued behind them, in pass order: a memory job only the big node
	// can hold (it measures the pairing room, 4 cores, before anything
	// starts), a compute job that takes the small node when it frees,
	// and a memory job that fits only beside that new primary.
	hungry := sleepDesc(8, 10*time.Minute, workload.ProfileMemory)
	hungry.MemoryMB = small.RAMGB*1024 + 1
	first := submit(hungry)
	mid := submit(sleepDesc(8, time.Hour, workload.ProfileCompute))
	sec := submit(sleepDesc(16, 10*time.Minute, workload.ProfileMemory))
	for _, j := range []*Job{first, mid, sec} {
		if j.State != StatePending {
			t.Fatalf("job %d = %s before the small node frees", j.ID, j.State)
		}
	}

	sim.RunUntil(holder.SubmitTime.Add(10 * time.Minute))
	if holder.State != StateCompleted || mid.State != StateRunning || mid.NodeName != small.Name {
		t.Fatalf("holder %s, mid %s on %q", holder.State, mid.State, mid.NodeName)
	}
	if sec.State != StateRunning || sec.NodeName != small.Name || !sec.StartTime.Equal(mid.StartTime) {
		t.Fatalf("secondary = %s on %q from %v, want paired beside job %d in the pass that started it at %v",
			sec.State, sec.NodeName, sec.StartTime, mid.ID, mid.StartTime)
	}
	if first.State != StatePending {
		t.Fatalf("memory-hungry job = %s, want PENDING", first.State)
	}
}

func TestCoSchedulePairingRoomBoundary(t *testing.T) {
	_, c := newPolicyCluster(t, 1, &CoSchedulePolicy{})
	cores := hw.DefaultSpec().Cores
	pri, err := c.Submit(sleepDesc(cores-12, time.Hour, workload.ProfileCompute))
	if err != nil {
		t.Fatal(err)
	}
	if pri.State != StateRunning {
		t.Fatalf("primary = %s", pri.State)
	}
	// One core more than the room beside the only candidate: no pass
	// may pair it, however often it is retried.
	over, err := c.Submit(sleepDesc(13, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if over.State != StatePending || over.Reason != "Resources" {
		t.Fatalf("oversized secondary = %s (%q), want PENDING/Resources", over.State, over.Reason)
	}
	// Exactly the room: pairs in the next pass, which also retries the
	// oversized job.
	fit, err := c.Submit(sleepDesc(12, 10*time.Minute, workload.ProfileMemory))
	if err != nil {
		t.Fatal(err)
	}
	if fit.State != StateRunning || fit.NodeName != pri.NodeName {
		t.Fatalf("exact-fit secondary = %s on %q, want RUNNING beside the primary", fit.State, fit.NodeName)
	}
	if over.State != StatePending {
		t.Fatalf("oversized secondary = %s after the retry", over.State)
	}
	if tot := c.PolicyTotals(); tot.CoScheduled != 1 {
		t.Fatalf("CoScheduled = %d, want 1", tot.CoScheduled)
	}
}
