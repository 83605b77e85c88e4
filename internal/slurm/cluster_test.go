package slurm

import (
	"math"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

func clusterNodes(sim *simclock.Sim, n int) []*hw.Node {
	nodes := make([]*hw.Node, n)
	for i := range nodes {
		spec := hw.DefaultSpec()
		if n > 1 {
			spec.Name = spec.Name + string(rune('a'+i))
		}
		nodes[i] = hw.NewNode(sim, spec, perfmodel.Default(), uint64(i+1))
	}
	return nodes
}

// TestClusterOptionErrors exercises the construction error paths.
func TestClusterOptionErrors(t *testing.T) {
	sim := simclock.New()
	nodes := clusterNodes(sim, 1)
	cases := []struct {
		name string
		conf Conf
		opts []ClusterOption
	}{
		{"no nodes", DefaultConf(), nil},
		{"no partitions", Conf{}, []ClusterOption{WithNodes(nodes...)}},
		{"unknown partition pool", DefaultConf(), []ClusterOption{WithPartitionNodes("gpu", nodes...)}},
		{"unknown partition policy", DefaultConf(), []ClusterOption{WithNodes(nodes...), WithPartitionPolicy("gpu", FIFOPolicy{})}},
		{"duplicate node", DefaultConf(), []ClusterOption{WithNodes(nodes[0], nodes[0])}},
	}
	for _, c := range cases {
		if _, err := NewCluster(sim, c.conf, c.opts...); err == nil {
			t.Errorf("%s: NewCluster succeeded, want error", c.name)
		}
	}

	conf := DefaultConf()
	conf.Partitions = append(conf.Partitions, Partition{Name: "empty"})
	if _, err := NewCluster(sim, conf, WithPartitionNodes("batch", nodes...)); err == nil {
		t.Error("partition without nodes accepted")
	}
}

// TestDedicatedPartitionPools verifies WithPartitionNodes isolation: a
// job in one partition never lands on the other's hardware.
func TestDedicatedPartitionPools(t *testing.T) {
	sim := simclock.New()
	conf := DefaultConf()
	conf.Partitions = append(conf.Partitions, Partition{Name: "debug", MaxTime: 30 * time.Minute})
	nodes := clusterNodes(sim, 2)
	c, err := NewCluster(sim, conf,
		WithPartitionNodes("batch", nodes[0]),
		WithPartitionNodes("debug", nodes[1]),
	)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/bin/app", workload.Sleep("app", 10*time.Minute))
	a, err := c.Submit(JobDesc{Name: "a", BinaryPath: "/bin/app", Partition: "batch", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(JobDesc{Name: "b", BinaryPath: "/bin/app", Partition: "debug", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if a.NodeName != nodes[0].Spec().Name {
		t.Errorf("batch job ran on %q, want %q", a.NodeName, nodes[0].Spec().Name)
	}
	if b.NodeName != nodes[1].Spec().Name {
		t.Errorf("debug job ran on %q, want %q", b.NodeName, nodes[1].Spec().Name)
	}
	// debug's MaxTime must cap the requested limit.
	if b.Desc.TimeLimit != 30*time.Minute {
		t.Errorf("debug TimeLimit = %v, want capped 30m", b.Desc.TimeLimit)
	}
	// A request larger than the dedicated pool's one node must queue,
	// not borrow the other partition's idle node.
	c2, err := c.Submit(JobDesc{Name: "c", BinaryPath: "/bin/app", Partition: "batch", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Submit(JobDesc{Name: "d", BinaryPath: "/bin/app", Partition: "batch", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if c2.State != StateRunning {
		t.Fatalf("first batch job %s, want RUNNING", c2.State)
	}
	if d.State != StatePending || d.Reason != "Resources" {
		t.Fatalf("second batch job %s (%s), want PENDING (Resources) — debug's idle node must not leak", d.State, d.Reason)
	}
	sim.Run()
}

// TestPerPartitionPolicies gives each partition its own policy and
// checks the scheduling order differs accordingly.
func TestPerPartitionPolicies(t *testing.T) {
	sim := simclock.New()
	conf := DefaultConf()
	conf.Partitions = append(conf.Partitions, Partition{Name: "fair"})
	nodes := clusterNodes(sim, 2)
	c, err := NewCluster(sim, conf,
		WithPartitionNodes("batch", nodes[0]),
		WithPartitionNodes("fair", nodes[1]),
		WithPartitionPolicy("fair", DefaultMultifactor(64)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.partByName["fair"].policy.Name(); got != "multifactor" {
		t.Fatalf("fair policy = %q, want multifactor", got)
	}
	if got := c.partByName["batch"].policy.Name(); got != "fifo" {
		t.Fatalf("batch policy = %q, want fifo", got)
	}
	if c.partByName["batch"].fifo != true || c.partByName["fair"].fifo != false {
		t.Fatal("fifo fast-path flags wrong")
	}
}

// TestShapeDrivenSubmission runs a job described by a workload.Shape
// instead of a registered binary, and checks the planned runtime and
// accounting match the registry path byte for byte.
func TestShapeDrivenSubmission(t *testing.T) {
	run := func(desc JobDesc) AcctRecord {
		sim := simclock.New()
		c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...))
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", 24000))
		job, err := c.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		rec, ok := c.Accounting().Record(job.ID)
		if !ok {
			t.Fatal("no accounting record")
		}
		return rec
	}

	base := JobDesc{Name: "s", NumTasks: 32, MaxFreqKHz: 2_500_000, TimeLimit: time.Hour}

	viaRegistry := base
	viaRegistry.BinaryPath = "/opt/hpcg/xhpcg"
	shape := workload.FixedWork("hpcg", 24000)
	viaShape := base
	viaShape.Shape = &shape

	a, b := run(viaRegistry), run(viaShape)
	if a.Runtime() != b.Runtime() || math.Abs(a.SystemKJ-b.SystemKJ) > 1e-9 {
		t.Fatalf("shape path diverges from registry path: %+v vs %+v", a, b)
	}
	if a.Runtime() == 0 {
		t.Fatal("job did not run")
	}

	sleep := workload.Sleep("nap", 7*time.Minute)
	viaSleep := base
	viaSleep.Shape = &sleep
	if got := run(viaSleep).Runtime(); got != 7*time.Minute {
		t.Fatalf("sleep shape ran %v, want 7m", got)
	}
}

// TestAggregateAccounting checks WithAggregateAccounting keeps totals,
// drops rows, and retires jobs without breaking dependencies.
func TestAggregateAccounting(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...),
		WithAggregateAccounting())
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/bin/app", workload.Sleep("app", time.Minute))
	first, err := c.Submit(JobDesc{Name: "a", BinaryPath: "/bin/app", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if _, live := c.Job(first.ID); live {
		t.Fatal("terminal job not retired in aggregate mode")
	}
	// A dependency on the retired job must still resolve.
	dep, err := c.Submit(JobDesc{Name: "b", BinaryPath: "/bin/app", TimeLimit: time.Hour, AfterOK: []int{first.ID}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	tot := c.Accounting().Totals()
	if tot.Jobs != 2 || tot.Completed != 2 {
		t.Fatalf("totals = %+v, want 2 completed", tot)
	}
	if len(c.Accounting().Records()) != 0 {
		t.Fatal("aggregate mode kept per-job rows")
	}
	if tot.RuntimeSeconds != 120 {
		t.Fatalf("runtime seconds = %g, want 120", tot.RuntimeSeconds)
	}
	if tot.SystemKJ <= 0 {
		t.Fatal("no energy accounted")
	}
	_ = dep
}

// TestConstructionOptionsWiring checks WithMetrics / WithTracer /
// WithFallbackWorkload / WithPolicy take effect at construction.
func TestConstructionOptionsWiring(t *testing.T) {
	sim := simclock.New()
	c, err := NewCluster(sim, DefaultConf(), WithNodes(clusterNodes(sim, 1)...),
		WithPolicy(DefaultMultifactor(64)),
		WithFallbackWorkload(workload.Sleep("fb", 2*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy().Name() != "multifactor" {
		t.Fatalf("policy = %q", c.Policy().Name())
	}
	job, err := c.Submit(JobDesc{Name: "x", BinaryPath: "/no/such", TimeLimit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Runtime() != 2*time.Minute {
		t.Fatalf("fallback runtime = %v, want 2m", done.Runtime())
	}
}
