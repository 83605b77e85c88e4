package slurm

import (
	"testing"
	"time"

	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// BenchmarkSubmitSteadyState measures the cluster simulator's inner
// loop from the controller's side: one pooled submission through
// SubmitDesc, batched scheduling, job execution and aggregate
// accounting, with the simulator drained to idle each iteration. The
// alloc-check make target pins it at 0 allocs/op — the job pool, the
// chunked job arena, the event pool and the aggregate-only accounting
// keep the whole submit→complete cycle off the heap. (A fresh 8 KiB
// arena chunk every 8192 job ids is the one amortised allocation;
// it rounds to zero at any benchtime.)
func BenchmarkSubmitSteadyState(b *testing.B) {
	sim := simclock.New()
	ctl, err := NewCluster(sim, DefaultConf(),
		WithNodes(clusterNodes(sim, 4)...),
		WithAggregateAccounting(),
		WithBatchedScheduling(),
	)
	if err != nil {
		b.Fatal(err)
	}
	shape := workload.Sleep("steady", 250*time.Millisecond)
	desc := JobDesc{
		Name:      "steady",
		NumTasks:  32,
		TimeLimit: time.Hour,
		UserID:    1000,
		Shape:     &shape,
	}
	run := func() {
		if _, err := ctl.SubmitDesc(&desc); err != nil {
			b.Fatal(err)
		}
		ctl.Flush() // batched mode: the driver flushes the instant's submissions
		sim.Run()
	}
	// Warm the job pool, event pool, usage slots and the first arena
	// chunk before measuring.
	for i := 0; i < 512; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if got := ctl.Accounting().Totals().Jobs; got < b.N {
		b.Fatalf("completed %d jobs, want >= %d", got, b.N)
	}
}

// BenchmarkSchedulePassHeldQueue measures one scheduling pass over a
// deep queue with the energy policies on: 512 queued jobs, half held by
// the deferral policy (the signal stays above its threshold) and half
// pairable memory-profile jobs too wide for the room beside any running
// primary, on a cluster whose every node is busy. No job starts, so
// every iteration is the same steady-state pass: the walk, one signal
// read per instant, each job's cached release bound, and the pairing
// prefilter in place of a node scan per job. The alloc-check make
// target pins it at 0 allocs/op.
func BenchmarkSchedulePassHeldQueue(b *testing.B) {
	sim := simclock.New()
	ctl, err := NewCluster(sim, DefaultConf(),
		WithPartitionNodes("batch", clusterNodes(sim, 4)...),
		WithSchedPolicies(
			&CoSchedulePolicy{},
			&DeferralPolicy{
				Signal:    func(time.Time) float64 { return 1 },
				Threshold: 0.5,
				MaxDefer:  1000 * time.Hour,
			},
		),
	)
	if err != nil {
		b.Fatal(err)
	}
	submit := func(tasks int, profile string, deferrable bool) {
		shape := workload.Sleep("held", time.Hour)
		shape.Profile = profile
		desc := JobDesc{Name: "held", NumTasks: tasks, TimeLimit: 2 * time.Hour, UserID: 1000, Shape: &shape, Deferrable: deferrable}
		if _, err := ctl.SubmitDesc(&desc); err != nil {
			b.Fatal(err)
		}
	}
	// Compute primaries leave 8 free cores on every node.
	for i := 0; i < 4; i++ {
		submit(24, workload.ProfileCompute, false)
	}
	for i := 0; i < 256; i++ {
		submit(8, workload.ProfileMemory, true)
		submit(16, workload.ProfileMemory, false)
	}
	p := ctl.parts[0]
	if len(p.pending) != 512 || p.freeN != 0 {
		b.Fatalf("queue %d jobs, %d idle nodes; want 512 and 0", len(p.pending), p.freeN)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.schedulePart(p)
	}
	b.StopTimer()
	if len(p.pending) != 512 || ctl.PolicyTotals().CoScheduled != 0 {
		b.Fatalf("pass changed the queue: %d pending, %d co-scheduled", len(p.pending), ctl.PolicyTotals().CoScheduled)
	}
}
