package slurm

import (
	"fmt"
	"math/bits"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
	"ecosched/internal/workload"
)

// Per-partition metric name prefixes; the partition name is appended
// (chronus.cluster.partition.queue_depth.batch, ...).
const (
	metricPartQueuePrefix  = "chronus.cluster.partition.queue_depth."
	metricPartOccPrefix    = "chronus.cluster.partition.occupancy."
	metricPartEnergyPrefix = "chronus.cluster.partition.energy_kj."
	metricPartDonePrefix   = "chronus.cluster.partition.jobs_completed."
)

// partition is one scheduling domain: a named pending queue with its
// own policy and node pool, stepped under the controller's shared
// clock. Legacy single-pool clusters (WithNodes) share every node
// across all partitions; dedicated pools (WithPartitionNodes) scope a
// partition to its own hardware.
type partition struct {
	name string
	// idx is the partition's position in Controller.parts — the pooled
	// event argument the deferral wake action carries.
	idx    int
	conf   Partition
	policy SchedulingPolicy
	fifo   bool // policy is FIFO → pending stays ID-ordered, skip sorting
	nodes  []*nodeD
	// classes are the distinct node capability shapes in the pool, the
	// O(1)-per-class feasibility check for submissions.
	classes []hw.NodeSpec
	// freeBits is a bitmap over the partition-local node slots
	// (p.nodes order, which follows construction order): bit set =
	// node idle and undrained. Scanning set bits in slot order
	// reproduces the first-fit placement order of the original linear
	// node scan; claims clear the bit in every partition sharing the
	// node, so there are no stale entries to skip. freeN caches the
	// population count for the "any node idle?" fast checks.
	freeBits []uint64
	freeN    int
	pending  []*Job
	busy     int // running jobs occupying this partition's nodes
	// dirtySched marks a deferred scheduling pass pending for this
	// partition (batched mode).
	dirtySched bool
	// keyed is the policy's priority-function view when it offers one;
	// orderKeyed then sorts on per-pass cached keys via sorter/prios.
	// slotKeyed is the further refinement that reads fair-share usage
	// from the controller's slot-indexed slice instead of the map.
	keyed     priorityKeyer
	slotKeyed slotKeyer
	prios     []float64
	sorter    prioSorter

	queueGauge  *metrics.Gauge
	occGauge    *metrics.Gauge
	energyGauge *metrics.Gauge
	doneCount   *metrics.Counter

	// Cluster-policy state (energy.go), maintained only when the policy
	// layer is active: the power budget, the modelled draw (idle floor
	// included) with its run peak, and the pending deferral wake.
	capW        float64
	drawW       float64
	peakDrawW   float64
	deferArmed  bool
	deferWakeAt time.Time
}

// takeIdle claims the lowest-slotted idle node that satisfies the
// request, or nil. The claimed node is unlisted from every partition
// sharing it; the caller must hand it back through refreeNode if the
// start fails.
func (p *partition) takeIdle(desc *JobDesc) *nodeD {
	for w, word := range p.freeBits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			n := p.nodes[w<<6|b]
			if nodeSatisfies(n, desc) {
				unlistFree(n)
				return n
			}
		}
	}
	return nil
}

// listFree marks the node idle and sets its bit in every owning
// partition's free bitmap. Callers guard on !n.free, keeping the
// bitmaps and freeN counts exactly in sync with the flag.
func listFree(n *nodeD) {
	n.free = true
	for i, p := range n.parts {
		slot := n.slots[i]
		p.freeBits[slot>>6] |= 1 << uint(slot&63)
		p.freeN++
	}
}

// unlistFree clears the node's free flag and its bit in every owning
// partition's bitmap. Callers guard on n.free.
func unlistFree(n *nodeD) {
	n.free = false
	for i, p := range n.parts {
		slot := n.slots[i]
		p.freeBits[slot>>6] &^= 1 << uint(slot&63)
		p.freeN--
	}
}

// setPolicy installs a scheduling policy and refreshes the FIFO fast
// path.
func (p *partition) setPolicy(pol SchedulingPolicy) {
	p.policy = pol
	_, p.fifo = pol.(FIFOPolicy)
	p.keyed, _ = pol.(priorityKeyer)
	p.slotKeyed, _ = pol.(slotKeyer)
}

// addNode appends a node to the pool, recording its capability class
// and its partition-local bitmap slot.
func (p *partition) addNode(n *nodeD) {
	n.slots = append(n.slots, len(p.nodes))
	p.nodes = append(p.nodes, n)
	n.parts = append(n.parts, p)
	if len(p.nodes) > len(p.freeBits)*64 {
		p.freeBits = append(p.freeBits, 0)
	}
	spec := n.hw.Spec()
	for _, cl := range p.classes {
		if cl.Cores == spec.Cores && cl.ThreadsPerCore == spec.ThreadsPerCore && cl.RAMGB == spec.RAMGB {
			return
		}
	}
	p.classes = append(p.classes, spec)
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type partNodesOpt struct {
	partition string
	nodes     []*hw.Node
}

type partPolicyOpt struct {
	partition string
	policy    SchedulingPolicy
}

type clusterConfig struct {
	shared       []*hw.Node
	partNodes    []partNodesOpt
	policy       SchedulingPolicy
	partPolicies []partPolicyOpt
	metrics      *metrics.Registry
	tracer       *trace.Tracer
	aggregate    bool
	batched      bool
	usageSink    func(uid uint32, cpuSeconds float64)
	fallback     Workload
	policies     []SchedPolicy
}

// WithNodes adds nodes shared by every partition — the legacy single
// pool, where any partition's jobs can land on any node.
func WithNodes(nodes ...*hw.Node) ClusterOption {
	return func(cfg *clusterConfig) { cfg.shared = append(cfg.shared, nodes...) }
}

// WithPartitionNodes dedicates nodes to one named partition, which
// must exist in the configuration.
func WithPartitionNodes(partition string, nodes ...*hw.Node) ClusterOption {
	return func(cfg *clusterConfig) {
		cfg.partNodes = append(cfg.partNodes, partNodesOpt{partition: partition, nodes: nodes})
	}
}

// WithPolicy sets the scheduling policy for every partition (default
// FIFO).
func WithPolicy(p SchedulingPolicy) ClusterOption {
	return func(cfg *clusterConfig) { cfg.policy = p }
}

// WithPartitionPolicy overrides the scheduling policy of one named
// partition.
func WithPartitionPolicy(partition string, p SchedulingPolicy) ClusterOption {
	return func(cfg *clusterConfig) {
		cfg.partPolicies = append(cfg.partPolicies, partPolicyOpt{partition: partition, policy: p})
	}
}

// WithMetrics attaches an observability registry at construction.
func WithMetrics(r *metrics.Registry) ClusterOption {
	return func(cfg *clusterConfig) { cfg.metrics = r }
}

// WithTracer attaches a decision tracer at construction.
func WithTracer(t *trace.Tracer) ClusterOption {
	return func(cfg *clusterConfig) { cfg.tracer = t }
}

// WithAggregateAccounting switches the controller to aggregate-only
// accounting: finished jobs fold into running totals (Accounting's
// Totals) and are retired from memory instead of being kept as
// per-job records — the mode that lets a single run absorb millions
// of submissions without holding them all.
func WithAggregateAccounting() ClusterOption {
	return func(cfg *clusterConfig) { cfg.aggregate = true }
}

// WithBatchedScheduling defers submission-triggered scheduling passes:
// submissions mark their partitions dirty and the driver runs one pass
// per dirty partition by calling Flush after it has queued everything
// arriving at the instant. Throughput mode for the cluster simulator
// (drivers that never Flush will stall pending jobs); the default
// remains synchronous scheduling, where a Submit can return an
// already-running job.
func WithBatchedScheduling() ClusterOption {
	return func(cfg *clusterConfig) { cfg.batched = true }
}

// WithUsageSink observes every fair-share usage increment the moment
// accounting applies it. The parallel partition lanes use it to
// replicate usage deltas into sibling lane controllers at window
// barriers (AddUsage).
func WithUsageSink(fn func(uid uint32, cpuSeconds float64)) ClusterOption {
	return func(cfg *clusterConfig) { cfg.usageSink = fn }
}

// WithFallbackWorkload sets the workload used for unknown binaries.
func WithFallbackWorkload(w Workload) ClusterOption {
	return func(cfg *clusterConfig) { cfg.fallback = w }
}

// WithSchedPolicies attaches cluster energy policies (PowerCapPolicy,
// CoSchedulePolicy, DeferralPolicy) at construction. The policy layer
// activates only through this option; without it the dispatch path is
// unchanged.
func WithSchedPolicies(ps ...SchedPolicy) ClusterOption {
	return func(cfg *clusterConfig) { cfg.policies = append(cfg.policies, ps...) }
}

// NewCluster builds a controller over the configuration's partitions
// and the node pools the options describe. Submit plugins named in
// conf.JobSubmitPlugins must be registered with RegisterPlugin before
// the first submission.
func NewCluster(sim *simclock.Sim, conf Conf, opts ...ClusterOption) (*Controller, error) {
	var cfg clusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(conf.Partitions) == 0 {
		return nil, fmt.Errorf("slurm: configuration has no partitions")
	}
	if len(cfg.shared) == 0 && len(cfg.partNodes) == 0 {
		return nil, fmt.Errorf("slurm: controller needs at least one node")
	}

	c := &Controller{
		sim:        sim,
		conf:       conf,
		nextID:     1,
		workloads:  make(map[string]Workload),
		fallback:   workload.Sleep("unknown", time.Minute),
		acct:       &Accounting{aggregateOnly: cfg.aggregate},
		policy:     FIFOPolicy{},
		usage:      make(map[uint32]float64),
		userSlots:  make(map[uint32]int32),
		usageSink:  cfg.usageSink,
		aggregate:  cfg.aggregate,
		batched:    cfg.batched,
		partByName: make(map[string]*partition),
	}
	c.compAct.c = c
	c.flushAct.c = c
	c.deferAct.c = c
	if cfg.policy != nil {
		c.policy = cfg.policy
	}
	if cfg.fallback != nil {
		c.fallback = cfg.fallback
	}

	for i := range conf.Partitions {
		p := &partition{name: conf.Partitions[i].Name, idx: i, conf: conf.Partitions[i]}
		p.setPolicy(c.policy)
		if _, dup := c.partByName[p.name]; dup {
			return nil, fmt.Errorf("slurm: duplicate partition %q in configuration", p.name)
		}
		c.parts = append(c.parts, p)
		c.partByName[p.name] = p
	}
	for _, pp := range cfg.partPolicies {
		p, ok := c.partByName[pp.partition]
		if !ok {
			return nil, fmt.Errorf("slurm: WithPartitionPolicy names unknown partition %q", pp.partition)
		}
		p.setPolicy(pp.policy)
	}

	seen := make(map[string]bool, len(cfg.shared))
	addNode := func(n *hw.Node, parts []*partition) error {
		name := n.Spec().Name
		if seen[name] {
			return fmt.Errorf("slurm: duplicate node name %q", name)
		}
		seen[name] = true
		nd := &nodeD{name: name, idx: len(c.nodes), hw: n, spec: n.Spec()}
		c.nodes = append(c.nodes, nd)
		for _, p := range parts {
			p.addNode(nd)
		}
		listFree(nd)
		return nil
	}
	for _, n := range cfg.shared {
		if err := addNode(n, c.parts); err != nil {
			return nil, err
		}
	}
	for _, pn := range cfg.partNodes {
		p, ok := c.partByName[pn.partition]
		if !ok {
			return nil, fmt.Errorf("slurm: WithPartitionNodes names unknown partition %q", pn.partition)
		}
		for _, n := range pn.nodes {
			if err := addNode(n, []*partition{p}); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range c.parts {
		if len(p.nodes) == 0 {
			return nil, fmt.Errorf("slurm: partition %q has no nodes", p.name)
		}
	}

	if len(cfg.policies) > 0 {
		c.epActive = true
		for _, nd := range c.nodes {
			nd.pm = NewPowerModel(nd.hw.Calibration())
			nd.idleDrawW = nd.pm.IdleNodeW()
		}
		// Partition draw starts at the idle floor: an empty cluster
		// still draws power, and the budget is a physical one.
		for _, p := range c.parts {
			for _, nd := range p.nodes {
				p.drawW += nd.idleDrawW
			}
			p.peakDrawW = p.drawW
		}
		for _, pol := range cfg.policies {
			if err := pol.attach(c); err != nil {
				return nil, err
			}
			c.policyNames = append(c.policyNames, pol.Name())
		}
	}

	c.metrics = cfg.metrics
	c.tracer = cfg.tracer
	c.cacheMetrics()
	return c, nil
}
