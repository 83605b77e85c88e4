package slurm

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/trace"
)

// Metric, span, and event names (ecolint/metricname: package-level
// constants in the chronus.* namespace).
const (
	spanSubmit    = "chronus.slurm.submit"
	spanSchedule  = "chronus.slurm.schedule"
	eventJobStart = "chronus.job.start"
	eventJobEnd   = "chronus.job.end"

	metricJobsSubmitted  = "chronus.slurm.jobs.submitted"
	metricJobsRejected   = "chronus.slurm.jobs.rejected"
	metricJobsCompleted  = "chronus.slurm.jobs.completed"
	metricJobsFailed     = "chronus.slurm.jobs.failed"
	metricJobsCancelled  = "chronus.slurm.jobs.cancelled"
	metricBudgetOverruns = "chronus.slurm.plugin.budget_overruns"
)

// MetricChainLatency is the bucketed per-submission plugin-chain
// latency histogram. Exported so the root package's loadgen harness
// and SLO evaluation can find it in a snapshot by name.
const MetricChainLatency = "chronus.slurm.plugin.chain_latency"

// Workload models what a job's executable does on a node: how long it
// runs in a given configuration and at what sustained throughput. The
// controller resolves workloads from the description's Shape when set,
// falling back to the registry keyed by the job's binary path.
// workload.Shape satisfies this contract, and is the one description
// type generated, replayed and hand-built jobs share.
type Workload interface {
	Name() string
	// Plan returns (runtime, sustained GFLOPS) for the configuration
	// on the node. A zero GFLOPS is valid for non-compute jobs.
	Plan(node *hw.Node, cfg perfmodel.Config) (time.Duration, float64)
}

// NodeInfo is one sinfo row.
type NodeInfo struct {
	Name  string
	State string // "idle" or "alloc"
	Cores int
	JobID int // 0 when idle
}

// nodeD is a slurmd: the per-node daemon owning the hardware.
type nodeD struct {
	name    string
	idx     int // construction index; the first-fit placement order
	hw      *hw.Node
	current *Job
	hwJob   *hw.Job
	// coJob is the co-scheduled secondary running beside current, when
	// the co-scheduling policy paired one (energy.go).
	coJob   *Job
	drained bool
	// free marks the node idle, undrained, and listed in its
	// partitions' free bitmaps. Claiming a shared node through one
	// partition clears the bit everywhere (unlistFree).
	free  bool
	parts []*partition
	// slots[i] is the node's bitmap slot in parts[i].
	slots []int
	// spec caches hw.Spec() — read on every placement probe.
	spec hw.NodeSpec
	// pm/idleDrawW are the node's power model and idle draw, set only
	// when the cluster-policy layer is active (energy.go).
	pm        PowerModel
	idleDrawW float64
	// Governor state saved while a --cpu-freq job pins userspace.
	savedGovernor hw.GovernorKind
	pinned        bool
}

// pinFrequency switches the node to the userspace governor at the
// job's requested frequency — what slurmd's cpu-freq support does —
// remembering the previous governor for restoration at job end.
func (n *nodeD) pinFrequency(khz int) error {
	n.savedGovernor = n.hw.Governor()
	if err := n.hw.SetGovernor(hw.GovernorUserspace); err != nil {
		return err
	}
	if err := n.hw.SetUserspaceFreq(khz); err != nil {
		return err
	}
	n.pinned = true
	return nil
}

// unpinFrequency restores the pre-job governor.
func (n *nodeD) unpinFrequency() {
	if !n.pinned {
		return
	}
	n.pinned = false
	_ = n.hw.SetGovernor(n.savedGovernor)
}

// Controller is the simulated slurmctld.
type Controller struct {
	sim        *simclock.Sim
	conf       Conf
	nodes      []*nodeD
	parts      []*partition
	partByName map[string]*partition
	plugins    []SubmitPlugin
	// jobs is the arena-indexed job table: job id i lives at
	// jobs[(i-1)>>jobChunkBits][(i-1)&jobChunkMask]. Ids are assigned
	// monotonically and never reused, so the hot dispatch path resolves
	// a job with a bounds check and two slice loads instead of a map
	// probe. Fixed-size chunks grow the table without ever copying or
	// re-scanning the pointers already placed — at millions of jobs the
	// doubling slice was half the simulator's allocation volume.
	// Retired slots are nil.
	jobs [][]*Job
	// jobPool recycles retired Job records in aggregate mode, where no
	// caller retains them past the completion hooks.
	jobPool []*Job
	// descScratch is the submission description the plugin chain and
	// validation operate on. Submit copies its argument here so the
	// mutable description never escapes to the heap; submissions are
	// strictly sequential (plugins cannot submit), so one slot is safe.
	descScratch JobDesc
	nextID      int
	workloads   map[string]Workload
	fallback    Workload
	acct        *Accounting
	onDone      []func(*Job)
	policy      SchedulingPolicy
	usage       map[uint32]float64 // user id → consumed CPU-seconds
	// userSlots assigns each user id a dense index into usageBy, the
	// slice mirror of usage that keyed scheduling passes read: a slice
	// load per pending job instead of a map probe. Both stores receive
	// the same increments in the same order, so they agree bit-exactly.
	userSlots map[uint32]int32
	usageBy   []float64
	// usageSink, when set, observes every fair-share usage increment
	// (WithUsageSink) — the hook the parallel partition lanes use to
	// replicate usage across lane controllers at window barriers.
	usageSink func(uid uint32, cpuSeconds float64)
	metrics   *metrics.Registry // nil = unobserved
	tracer    *trace.Tracer     // nil = untraced
	// aggregate retires terminal jobs from memory (see
	// WithAggregateAccounting); retired keeps their final state codes
	// by id so dependency resolution still works after retirement.
	aggregate bool
	retired   []uint8
	// depPending counts queued jobs with afterok dependencies: while
	// non-zero, any job completion reschedules every partition, since
	// the dependent may be queued far from the freed node.
	depPending int

	// batched defers scheduling passes to one flush event per clock
	// instant (WithBatchedScheduling); dirtyParts counts partitions
	// awaiting that flush.
	batched    bool
	flushArmed bool
	dirtyParts int

	// Pre-allocated simclock Actions: job completion and the batched
	// scheduling flush are the two per-job hot events, fired through
	// these handles with zero per-event allocation. deferAct wakes a
	// partition whose energy-deferral hold may have expired.
	compAct  completeAction
	flushAct flushAction
	deferAct deferAction

	// Cluster energy policies (energy.go). epActive gates every policy
	// hook on the dispatch path; a controller built without
	// WithSchedPolicies pays one predictable branch per site.
	epActive       bool
	capActive      bool
	freqCap        bool
	cosched        bool
	coschedPenalty float64
	deferral       bool
	deferSignal    DeferralSignal
	deferThreshold float64
	deferMax       time.Duration
	deferCheck     time.Duration
	policyNames    []string
	ptotals        PolicyTotals

	// activePlug caches the slurm.conf-resolved plugin chain;
	// invalidated by RegisterPlugin.
	activePlug   []SubmitPlugin
	activePlugOK bool

	// Cached metric handles (nil-safe; resolved at construction) so
	// the event loop skips the registry's map lookups.
	mSubmitted    *metrics.Counter
	mRejected     *metrics.Counter
	mCompleted    *metrics.Counter
	mFailed       *metrics.Counter
	mCancelled    *metrics.Counter
	mOverruns     *metrics.Counter
	mChainLatency *metrics.BucketedHistogram
	mCapDenials   *metrics.Counter
	mFreqCapped   *metrics.Counter
	mDeferred     *metrics.Counter
	mCoScheduled  *metrics.Counter
}

// Retired-state codes: one byte per retired job instead of a
// JobState string header.
const (
	retiredNone uint8 = iota
	retiredCompleted
	retiredFailed
	retiredCancelled
)

func retireCode(s JobState) uint8 {
	switch s {
	case StateCompleted:
		return retiredCompleted
	case StateFailed:
		return retiredFailed
	default:
		return retiredCancelled
	}
}

func retiredState(code uint8) JobState {
	switch code {
	case retiredCompleted:
		return StateCompleted
	case retiredFailed:
		return StateFailed
	case retiredCancelled:
		return StateCancelled
	}
	return ""
}

// completeAction fires a job's scheduled completion. The event is
// uncancellable (simclock fast path), so Fire re-validates against the
// arena: a job cancelled meanwhile is terminal (or retired to a nil
// slot) and the stale event is dropped.
type completeAction struct{ c *Controller }

func (a *completeAction) Fire(arg uint64) { a.c.completeJob(int(arg)) }

// flushAction runs the deferred scheduling passes of the current
// instant (batched mode).
type flushAction struct{ c *Controller }

func (a *flushAction) Fire(uint64) { a.c.flushScheduling() }

// cacheMetrics resolves the controller's metric handles against the
// current registry (all nil when unobserved — the types are nil-safe).
func (c *Controller) cacheMetrics() {
	c.mSubmitted = c.metrics.Counter(metricJobsSubmitted)
	c.mRejected = c.metrics.Counter(metricJobsRejected)
	c.mCompleted = c.metrics.Counter(metricJobsCompleted)
	c.mFailed = c.metrics.Counter(metricJobsFailed)
	c.mCancelled = c.metrics.Counter(metricJobsCancelled)
	c.mOverruns = c.metrics.Counter(metricBudgetOverruns)
	c.mChainLatency = c.metrics.BucketedHistogram(MetricChainLatency)
	c.mCapDenials = c.metrics.Counter(metricCapDenials)
	c.mFreqCapped = c.metrics.Counter(metricFreqCapped)
	c.mDeferred = c.metrics.Counter(metricDeferred)
	c.mCoScheduled = c.metrics.Counter(metricCoScheduled)
	for _, p := range c.parts {
		p.queueGauge = c.metrics.Gauge(metricPartQueuePrefix + p.name)
		p.occGauge = c.metrics.Gauge(metricPartOccPrefix + p.name)
		p.energyGauge = c.metrics.Gauge(metricPartEnergyPrefix + p.name)
		p.doneCount = c.metrics.Counter(metricPartDonePrefix + p.name)
	}
}

// Conf returns the parsed slurm.conf the controller runs under —
// read-only configuration for callers that need the budgets (the
// loadgen SLO evaluation) without re-parsing the file.
func (c *Controller) Conf() Conf { return c.conf }

// RegisterPlugin registers a submit plugin implementation. Only
// plugins named in the configuration's JobSubmitPlugins line are
// invoked, in configuration order — matching how Slurm loads the
// plugin only when slurm.conf enables it (paper §3.4.1).
func (c *Controller) RegisterPlugin(p SubmitPlugin) {
	c.plugins = append(c.plugins, p)
	c.activePlugOK = false
}

// RegisterWorkload maps a binary path to its workload model.
func (c *Controller) RegisterWorkload(binaryPath string, w Workload) {
	c.workloads[binaryPath] = w
}

// Policy returns the cluster-default scheduling policy.
func (c *Controller) Policy() SchedulingPolicy { return c.policy }

// UserUsageCPUSeconds reports a user's accumulated CPU-seconds, the
// fair-share input.
func (c *Controller) UserUsageCPUSeconds(uid uint32) float64 { return c.usage[uid] }

// AddUsage credits fair-share usage that accrued outside this
// controller — the lane-barrier replication path. It deliberately does
// not invoke the usage sink: the delta originated from a sibling
// controller's sink and echoing it back would double-count.
func (c *Controller) AddUsage(uid uint32, cpuSeconds float64) {
	c.addUsage(uid, c.slotFor(uid), cpuSeconds)
}

// Accounting returns the slurmdbd record store.
func (c *Controller) Accounting() *Accounting { return c.acct }

// OnCompletion registers a hook invoked when any job reaches a
// terminal state.
func (c *Controller) OnCompletion(fn func(*Job)) {
	c.onDone = append(c.onDone, fn)
}

// QueueDepth reports the pending-queue length of one partition.
func (c *Controller) QueueDepth(partition string) int {
	if len(c.parts) == 1 && c.parts[0].name == partition {
		return len(c.parts[0].pending)
	}
	if p, ok := c.partByName[partition]; ok {
		return len(p.pending)
	}
	return 0
}

// activePlugins returns the registered plugins enabled by slurm.conf,
// in configuration order. The resolved chain is cached — slurm.conf
// and the registration set change rarely, submissions happen millions
// of times — and invalidated by RegisterPlugin.
func (c *Controller) activePlugins() ([]SubmitPlugin, error) {
	if c.activePlugOK {
		return c.activePlug, nil
	}
	out := c.activePlug[:0]
	for _, name := range c.conf.JobSubmitPlugins {
		found := false
		for _, p := range c.plugins {
			if p.Name() == name {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("slurm: JobSubmitPlugins names %q but no such plugin is registered", name)
		}
	}
	c.activePlug = out
	c.activePlugOK = true
	return out, nil
}

// newJob takes a Job record off the pool (aggregate mode recycles
// retired ones) or allocates a fresh one. The record comes back
// zeroed.
func (c *Controller) newJob() *Job {
	if n := len(c.jobPool); n > 0 {
		j := c.jobPool[n-1]
		c.jobPool = c.jobPool[:n-1]
		*j = Job{}
		return j
	}
	//lint:ignore ecolint/zeroallocproof pool refill — amortized; retired jobs recycle through jobPool (alloc-check proves 0 allocs/op on the submit cycle)
	return &Job{}
}

// Job-table chunk geometry: 8192 ids per chunk ≈ 64 KB of pointers.
const (
	jobChunkBits = 13
	jobChunkSize = 1 << jobChunkBits
	jobChunkMask = jobChunkSize - 1
)

// jobByID resolves a live job from the arena, or nil (unknown id or
// retired).
func (c *Controller) jobByID(id int) *Job {
	if id >= 1 && id < c.nextID {
		idx := id - 1
		return c.jobs[idx>>jobChunkBits][idx&jobChunkMask]
	}
	return nil
}

// kick requests a scheduling pass for the partition: immediately in
// the default mode, or deferred to the instant's flush event in
// batched mode — many submissions and completions landing on one
// clock instant then cost one pass per partition instead of one per
// event.
func (c *Controller) kick(p *partition) {
	if !c.batched {
		c.schedulePart(p)
		return
	}
	if !p.dirtySched {
		p.dirtySched = true
		c.dirtyParts++
	}
	c.armFlush()
}

// kickAll requests a pass over every partition.
func (c *Controller) kickAll() {
	if !c.batched {
		c.scheduleAll()
		return
	}
	for _, p := range c.parts {
		if !p.dirtySched {
			p.dirtySched = true
			c.dirtyParts++
		}
	}
	c.armFlush()
}

// kickSubmit requests a pass after a submission. In batched mode the
// partition is only marked dirty — no flush event is armed: the
// submitting driver calls Flush once the instant's submissions are
// all queued, which costs one pass and zero queue events per instant.
func (c *Controller) kickSubmit(p *partition) {
	if !c.batched {
		c.schedulePart(p)
		return
	}
	if !p.dirtySched {
		p.dirtySched = true
		c.dirtyParts++
	}
}

// Flush runs any deferred scheduling passes immediately. Batched-mode
// drivers must call it after queueing an instant's submissions; other
// deferred wakes (Cancel, drain) arm their own flush event and need no
// help.
func (c *Controller) Flush() { c.flushScheduling() }

func (c *Controller) armFlush() {
	if c.flushArmed {
		return
	}
	c.flushArmed = true
	c.sim.AtAction(c.sim.Now(), &c.flushAct, 0)
}

// flushScheduling runs the deferred passes, in configuration order so
// the outcome is independent of which partition went dirty first.
func (c *Controller) flushScheduling() {
	c.flushArmed = false
	if c.dirtyParts == 0 {
		return
	}
	for _, p := range c.parts {
		if p.dirtySched {
			p.dirtySched = false
			c.dirtyParts--
			c.schedulePart(p)
		}
	}
}

// Submit is sbatch: run the submit-plugin chain, validate, and queue.
// Array descriptions must go through SubmitArray.
func (c *Controller) Submit(desc JobDesc) (*Job, error) {
	c.descScratch = desc
	return c.submitTraced(&c.descScratch)
}

// SubmitDesc is Submit for hot pump loops: the description is read
// through the pointer and copied once into the controller's scratch
// slot instead of twice through the stack. The caller keeps ownership
// of *desc; it is never mutated or retained.
func (c *Controller) SubmitDesc(desc *JobDesc) (*Job, error) {
	c.descScratch = *desc
	return c.submitTraced(&c.descScratch)
}

// submitTraced wraps the submission in the root span of the decision
// trace: plugin spans nest under it and the assigned job id lands in
// its attributes, which is how `chronus trace <job>` finds the trace.
// The id the job is about to receive keys head sampling, so a sampled
// deployment keeps or drops each submission's trace as a whole.
func (c *Controller) submitTraced(desc *JobDesc) (*Job, error) {
	ctx, span := c.tracer.StartKeyed(context.Background(), spanSubmit, uint64(c.nextID))
	job, err := c.submit(ctx, desc)
	if span != nil {
		if job != nil {
			span.SetAttr(trace.AttrJobID, strconv.Itoa(job.ID))
		}
		if desc.Name != "" {
			span.SetAttr("job_name", desc.Name)
		}
	}
	span.End(err)
	return job, err
}

func (c *Controller) submit(ctx context.Context, desc *JobDesc) (*Job, error) {
	if desc.IsArray() {
		return nil, fmt.Errorf("slurm: array description submitted directly; use SubmitArray")
	}
	c.mSubmitted.Inc()
	plugins, err := c.activePlugins()
	if err != nil {
		return nil, err
	}
	var pluginTime time.Duration
	for _, p := range plugins {
		lat, err := p.JobSubmit(ctx, desc, desc.UserID)
		pluginTime += lat
		if err != nil {
			c.mRejected.Inc()
			return nil, fmt.Errorf("slurm: plugin %s rejected job: %w", p.Name(), err)
		}
		if pluginTime > c.conf.PluginBudget {
			c.mRejected.Inc()
			c.mOverruns.Inc()
			return nil, fmt.Errorf("slurm: plugin %s exceeded the submit budget (%v > %v)",
				p.Name(), pluginTime, c.conf.PluginBudget)
		}
	}
	if len(plugins) > 0 {
		c.mChainLatency.ObserveDuration(pluginTime)
		if s := trace.FromContext(ctx); s != nil {
			s.SetAttr("plugin_sim_latency", pluginTime.String())
		}
	}

	if desc.NumTasks <= 0 {
		desc.NumTasks = 1
	}
	if desc.ThreadsPerCPU <= 0 {
		desc.ThreadsPerCPU = 1
	}
	if desc.TimeLimit <= 0 {
		desc.TimeLimit = c.conf.DefaultTimeLimit
	}
	// Partition handling: fill the default, reject unknown names, cap
	// the time limit to the partition's MaxTime.
	if desc.Partition == "" {
		desc.Partition = c.conf.DefaultPartition().Name
	}
	// Small clusters (a lane is one partition, the reference specs two)
	// resolve the partition by scanning names — short string compares
	// beat hashing the name into the map on every submission.
	var part *partition
	if len(c.parts) <= 4 {
		for _, q := range c.parts {
			if q.name == desc.Partition {
				part = q
				break
			}
		}
	} else {
		part = c.partByName[desc.Partition]
	}
	if part == nil {
		return nil, fmt.Errorf("slurm: invalid partition specified: %s", desc.Partition)
	}
	if part.conf.MaxTime > 0 && desc.TimeLimit > part.conf.MaxTime {
		desc.TimeLimit = part.conf.MaxTime
	}
	if err := part.fits(desc); err != nil {
		return nil, err
	}
	for _, dep := range desc.AfterOK {
		if _, ok := c.jobState(dep); !ok {
			return nil, fmt.Errorf("slurm: dependency on unknown job %d", dep)
		}
	}

	job := c.newJob()
	job.ID = c.nextID
	job.Desc = *desc
	job.State = StatePending
	job.Reason = "Priority"
	job.SubmitTime = c.sim.Now()
	job.submitTick = c.sim.NowTick()
	job.part = part
	job.userSlot = c.slotFor(desc.UserID)
	if desc.Shape != nil {
		// Copy the shape into the job-owned buffer: the description's
		// pointer may be to a caller's stack scratch (the cluster
		// simulator reuses one per submission stream), and the job can
		// outlive it.
		job.shape = *desc.Shape
		job.Desc.Shape = &job.shape
	}
	c.nextID++
	idx := job.ID - 1
	if ci := idx >> jobChunkBits; ci == len(c.jobs) {
		//lint:ignore ecolint/zeroallocproof arena growth — one chunk per 8192 job ids, amortized to ~0 per submission
		c.jobs = append(c.jobs, make([]*Job, jobChunkSize))
	}
	c.jobs[idx>>jobChunkBits][idx&jobChunkMask] = job
	part.pending = append(part.pending, job)
	if len(desc.AfterOK) > 0 {
		c.depPending++
	}
	c.kickSubmit(part)
	return job, nil
}

// SubmitScript parses an sbatch script and submits it. Array requests
// expand into independent tasks; the first task is returned, as
// sbatch prints one job id for the whole array.
func (c *Controller) SubmitScript(script string) (*Job, error) {
	desc, err := ParseBatchScript(script)
	if err != nil {
		return nil, err
	}
	if desc.IsArray() {
		tasks, err := c.SubmitArray(desc)
		if err != nil {
			return nil, err
		}
		return tasks[0], nil
	}
	return c.Submit(desc)
}

// SubmitArray expands an --array request into independent tasks
// (name_[index]) and submits each through the normal path — plugins
// included, as Slurm invokes job_submit per array task.
func (c *Controller) SubmitArray(desc JobDesc) ([]*Job, error) {
	if !desc.IsArray() {
		return nil, fmt.Errorf("slurm: SubmitArray on a non-array description")
	}
	if n := desc.ArrayHi - desc.ArrayLo + 1; n > 10000 {
		return nil, fmt.Errorf("slurm: array of %d tasks exceeds MaxArraySize", n)
	}
	base := desc.Name
	var tasks []*Job
	for idx := desc.ArrayLo; idx <= desc.ArrayHi; idx++ {
		task := desc
		task.ArrayLo, task.ArrayHi = 0, 0
		task.ArrayIndex = idx
		if base != "" {
			task.Name = fmt.Sprintf("%s_%d", base, idx)
		}
		job, err := c.Submit(task)
		if err != nil {
			return tasks, fmt.Errorf("slurm: array task %d: %w", idx, err)
		}
		tasks = append(tasks, job)
	}
	return tasks, nil
}

// WaitForAll advances simulated time until every listed job is
// terminal.
func (c *Controller) WaitForAll(ids []int) error {
	for _, id := range ids {
		if _, err := c.WaitFor(id); err != nil {
			return err
		}
	}
	return nil
}

// fits checks the request against the partition's node capability
// classes (one entry per distinct node shape, so the common
// homogeneous pool checks one).
func (p *partition) fits(desc *JobDesc) error {
	for i := range p.classes {
		spec := &p.classes[i]
		if desc.NumTasks <= spec.Cores &&
			desc.ThreadsPerCPU <= spec.ThreadsPerCore &&
			desc.MemoryMB <= spec.RAMGB*1024 {
			return nil
		}
	}
	return fmt.Errorf("slurm: no node can satisfy %d tasks × %d threads × %d MB",
		desc.NumTasks, desc.ThreadsPerCPU, desc.MemoryMB)
}

func nodeSatisfies(n *nodeD, desc *JobDesc) bool {
	return desc.NumTasks <= n.spec.Cores &&
		desc.ThreadsPerCPU <= n.spec.ThreadsPerCore &&
		desc.MemoryMB <= n.spec.RAMGB*1024
}

// scheduleAll runs a scheduling pass over every partition in
// configuration order.
func (c *Controller) scheduleAll() {
	for _, p := range c.parts {
		c.schedulePart(p)
	}
}

// schedulePart places the partition's pending jobs onto idle nodes in
// policy order.
func (c *Controller) schedulePart(p *partition) {
	if len(p.pending) == 0 {
		return
	}
	if p.freeN == 0 && p.busy > 0 && !c.cosched {
		// Hot path at scale: every node busy, so nothing can start
		// before this partition's next job-end event, which reschedules
		// it. Tag fresh arrivals with the visible squeue reason and
		// skip the full pass. (With co-scheduling a busy node may still
		// accept a complementary secondary, so the pass must run.)
		for i := len(p.pending) - 1; i >= 0 && p.pending[i].Reason == "Priority"; i-- {
			p.pending[i].Reason = "Resources"
		}
		p.queueGauge.Set(float64(len(p.pending)))
		return
	}
	now := c.sim.Now()
	_, span := c.tracer.Start(context.Background(), spanSchedule)
	if span != nil {
		span.SetAttr("partition", p.name)
		span.SetAttr("pending", strconv.Itoa(len(p.pending)))
		//lint:ignore ecolint/zeroallocproof span-guarded instrumentation; with tracing off (the latency-bounded deployment) span is nil and this block never runs
		defer func() { span.End(nil) }()
	}
	if !p.fifo {
		if p.keyed != nil {
			// Key-cached ordering: compute each job's priority once per
			// pass, then sort on the cached keys — the policy's Priority
			// would otherwise be recomputed O(n log n) times per pass.
			p.orderKeyed(now, c.usage, c.usageBy)
		} else {
			p.policy.Order(p.pending, now, c.usage)
		}
	}
	remaining := p.pending[:0]
	for i, job := range p.pending {
		if p.freeN == 0 && !c.cosched {
			// Every node claimed mid-pass: nothing below can start, so
			// keep the tail queued wholesale instead of probing each
			// job — the pass cost stays bounded by placements made, not
			// by backlog depth. Deferred dependency/begin-time handling
			// happens when the next node frees.
			rest := p.pending[i:]
			for k := len(rest) - 1; k >= 0 && rest[k].Reason == "Priority"; k-- {
				rest[k].Reason = "Resources"
			}
			if len(remaining) == 0 {
				// Everything ahead of i started: the tail is already in
				// place, so slide the window forward instead of copying
				// the whole backlog down — under a deep queue draining
				// one node at a time, that copy is the pass's entire
				// cost. (Appends reallocate compactly once the drifted
				// backing array's cap runs out.)
				p.pending = rest
				p.queueGauge.Set(float64(len(p.pending)))
				return
			}
			remaining = append(remaining, rest...)
			break
		}
		if job.State != StatePending {
			continue
		}
		if len(job.Desc.AfterOK) > 0 {
			switch c.dependencyState(job) {
			case depFailed:
				job.State = StateCancelled
				job.Reason = "DependencyNeverSatisfied"
				job.EndTime = now
				c.finish(job)
				continue
			case depWaiting:
				job.Reason = "Dependency"
				remaining = append(remaining, job)
				continue
			}
		}
		if !job.Desc.BeginTime.IsZero() && job.Desc.BeginTime.After(now) {
			job.Reason = "BeginTime"
			// Wake this partition up when the job becomes eligible.
			// AtOrNow: the begin time can land exactly on the current
			// instant from a caller's perspective yet be "past" by the
			// time the pass runs.
			// The wake fires inside the event loop: pass directly.
			//lint:ignore ecolint/zeroallocproof begin-time deferral — only jobs submitted with a future BeginTime take this branch, never the steady-state backlog
			c.sim.AtOrNow(job.Desc.BeginTime, func() { c.schedulePart(p) })
			remaining = append(remaining, job)
			continue
		}
		if c.deferral && job.Desc.Deferrable {
			if hold, wake := c.deferHold(job, now); hold {
				job.Reason = reasonEnergyHold
				c.armDeferWake(p, wake)
				remaining = append(remaining, job)
				continue
			}
		}
		node := p.takeIdle(&job.Desc)
		if node == nil {
			if c.cosched && c.tryPair(p, job, now) {
				continue
			}
			job.Reason = "Resources"
			remaining = append(remaining, job)
			continue
		}
		if c.capActive && !c.placeWithinCap(job, node) {
			c.refreeNode(node)
			job.Reason = reasonPowerCap
			c.ptotals.CapDenials++
			c.mCapDenials.Inc()
			remaining = append(remaining, job)
			continue
		}
		if err := c.start(job, node); err != nil {
			job.State = StateFailed
			job.Reason = err.Error()
			job.EndTime = now
			c.finish(job)
		}
	}
	p.pending = remaining
	p.queueGauge.Set(float64(len(p.pending)))
}

// claimNode books a started job onto the node across every partition
// sharing it.
func (c *Controller) claimNode(n *nodeD, job *Job) {
	n.current = job
	job.node = n
	for _, p := range n.parts {
		p.busy++
		p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
	}
}

// releaseNode frees a node at job end or cancellation and relists it
// in its partitions' free heaps.
func (c *Controller) releaseNode(n *nodeD) {
	if n.current != nil {
		n.current.node = nil
	}
	n.current = nil
	n.hwJob = nil
	for _, p := range n.parts {
		p.busy--
		p.occGauge.Set(float64(p.busy) / float64(len(p.nodes)))
	}
	c.refreeNode(n)
}

// refreeNode relists an idle node (claimed but never started, or just
// released) in its partitions' free bitmaps.
func (c *Controller) refreeNode(n *nodeD) {
	if n.drained || n.free || n.current != nil {
		return
	}
	listFree(n)
}

func (c *Controller) start(job *Job, node *nodeD) error {
	cfg := job.Desc.Config()
	var w Workload
	switch {
	case job.Desc.Shape != nil:
		// The pointer satisfies Workload (value receivers); using it
		// directly avoids boxing a Shape copy per start.
		w = job.Desc.Shape
	default:
		var ok bool
		if w, ok = c.workloads[job.Desc.BinaryPath]; !ok {
			w = c.fallback
		}
	}

	hwJob, err := node.hw.StartJob(cfg)
	if err != nil {
		c.refreeNode(node)
		return err
	}
	// Record the frequency the job actually runs at: a job without
	// --cpu-freq gets the governor's choice, resolved by slurmd.
	if job.Desc.MaxFreqKHz == 0 {
		job.Desc.MaxFreqKHz = hwJob.Config.FreqKHz
		job.Desc.MinFreqKHz = hwJob.Config.FreqKHz
	} else {
		// slurmd pins the userspace governor for --cpu-freq jobs, so
		// sysfs and telemetry reflect the pinned frequency.
		if err := node.pinFrequency(hwJob.Config.FreqKHz); err != nil {
			hwJob.End()
			c.refreeNode(node)
			return err
		}
	}
	duration, gflops := w.Plan(node.hw, hwJob.Config)
	duration, timedOut := capRuntime(duration, job.Desc.TimeLimit)
	now := c.sim.Now()

	// Deadline extension (§6.2.1): a job that cannot finish in time is
	// cancelled rather than run uselessly.
	if !job.Desc.Deadline.IsZero() && now.Add(duration).After(job.Desc.Deadline) {
		hwJob.End()
		node.unpinFrequency()
		c.refreeNode(node)
		job.State = StateCancelled
		job.Reason = "DeadlineUnsatisfiable"
		job.EndTime = now
		c.finish(job)
		return nil
	}

	job.State = StateRunning
	job.Reason = ""
	job.StartTime = now
	job.startTick = c.sim.NowTick()
	job.NodeName = node.name
	job.GFLOPS = gflops
	c.claimNode(node, job)
	node.hwJob = hwJob
	if c.epActive {
		// Charge the draw of the configuration the job actually runs in
		// (slurmd resolved the frequency above), so the partition draw
		// bookkeeping is self-consistent with what is returned at end.
		c.addDraw(job, node, node.pm.PlacementDeltaW(hwJob.Config))
	}
	if c.tracer != nil && c.tracer.SampleKey(uint64(job.ID)) {
		//lint:ignore ecolint/zeroallocproof sampled start event — allocation gated on SampleKey head sampling, off the unsampled fast path
		c.tracer.Event(eventJobStart, map[string]string{
			trace.AttrJobID: strconv.Itoa(job.ID),
			"node":          node.name,
			"cores":         strconv.Itoa(hwJob.Config.Cores),
			"freq_khz":      strconv.Itoa(hwJob.Config.FreqKHz),
			"threads":       strconv.Itoa(hwJob.Config.ThreadsPerCore),
		})
	}

	job.sys0, job.cpu0 = node.hw.EnergyJ()
	job.timedOut = timedOut
	c.sim.AfterAction(duration, &c.compAct, uint64(job.ID))
	return nil
}

// capRuntime truncates a planned runtime at the job's time limit and
// reports whether the limit kills the job. Both dispatch paths cap
// before their deadline check: Slurm's rule is "start > deadline −
// time limit", so a job whose plan overruns its limit still runs, and
// times out, when the limit fits the deadline.
func capRuntime(planned, limit time.Duration) (time.Duration, bool) {
	if planned > limit {
		return limit, true
	}
	return planned, false
}

// completeJob is the completion event for a running job, fired through
// the controller's pre-allocated Action. The event is uncancellable,
// so it re-validates: a job cancelled (and possibly retired or even
// recycled) meanwhile no longer matches a running arena entry and the
// stale event is dropped.
func (c *Controller) completeJob(id int) {
	job := c.jobByID(id)
	if job == nil || job.ID != id || job.State != StateRunning || job.node == nil {
		return // cancelled meanwhile
	}
	node := job.node
	if job.coSecondary {
		c.completeSecondary(job, node)
		return
	}
	node.hwJob.End()
	node.unpinFrequency()
	sys1, cpu1 := node.hw.EnergyJ()
	job.SystemJ = sys1 - job.sys0
	job.CPUJ = cpu1 - job.cpu0
	job.EndTime = c.sim.Now()
	job.endTick = c.sim.NowTick()
	if job.timedOut {
		job.State = StateFailed
		job.Reason = "TimeLimit"
	} else {
		job.State = StateCompleted
	}
	if c.epActive {
		c.dropDraw(job, node)
	}
	if co := node.coJob; co != nil {
		// A co-scheduled secondary is still running: promote it to the
		// node's occupant instead of freeing the node. The hw job ended
		// with the primary; the secondary finishes on estimates.
		node.coJob = nil
		node.current = co
		node.hwJob = nil
		job.node = nil
	} else {
		c.releaseNode(node)
	}
	c.finish(job)
	// Completion already runs inside the event loop, so schedule the
	// freed node's partitions directly instead of arming a same-instant
	// flush event — one fewer queue round-trip per job.
	if c.depPending > 0 {
		// A queued dependent may live in any partition; wake them
		// all so cross-partition dependency chains resolve.
		c.scheduleAll()
	} else {
		for _, p := range node.parts {
			c.schedulePart(p)
		}
	}
}

// slotFor returns the user's dense usage slot, assigning one on first
// sight.
func (c *Controller) slotFor(uid uint32) int32 {
	if s, ok := c.userSlots[uid]; ok {
		return s
	}
	s := int32(len(c.usageBy))
	c.userSlots[uid] = s
	c.usageBy = append(c.usageBy, 0)
	return s
}

// addUsage credits consumed CPU-seconds to both fair-share stores.
func (c *Controller) addUsage(uid uint32, slot int32, delta float64) {
	c.usage[uid] += delta
	c.usageBy[slot] += delta
}

func (c *Controller) finish(job *Job) {
	if job.startTick != 0 && job.endTick != 0 {
		delta := float64(job.Desc.NumTasks) * time.Duration(job.endTick-job.startTick).Seconds()
		c.addUsage(job.Desc.UserID, job.userSlot, delta)
		if c.usageSink != nil {
			c.usageSink(job.Desc.UserID, delta)
		}
	} else if !job.StartTime.IsZero() && !job.EndTime.IsZero() {
		delta := float64(job.Desc.NumTasks) * job.EndTime.Sub(job.StartTime).Seconds()
		c.addUsage(job.Desc.UserID, job.userSlot, delta)
		if c.usageSink != nil {
			c.usageSink(job.Desc.UserID, delta)
		}
	}
	switch job.State {
	case StateCompleted:
		c.mCompleted.Inc()
	case StateFailed:
		c.mFailed.Inc()
	case StateCancelled:
		c.mCancelled.Inc()
	}
	if p := job.part; p != nil {
		if job.State == StateCompleted {
			p.doneCount.Inc()
		}
		if job.SystemJ > 0 {
			p.energyGauge.Add(job.SystemJ / 1000)
		}
	}
	// Degraded outcomes (failures, cancellations) are always journaled;
	// only the healthy completion event is subject to head sampling.
	if c.tracer != nil && (job.State != StateCompleted || c.tracer.SampleKey(uint64(job.ID))) {
		//lint:ignore ecolint/zeroallocproof sampled/degraded end event — allocation gated on the tracer branch, off the unsampled fast path
		attrs := map[string]string{
			trace.AttrJobID: strconv.Itoa(job.ID),
			"state":         string(job.State),
		}
		if job.Reason != "" {
			attrs["reason"] = job.Reason
		}
		if job.SystemJ > 0 {
			//lint:ignore ecolint/zeroallocproof sampled end-event formatting, same tracer gate as the attrs map above
			attrs["system_kj"] = fmt.Sprintf("%.3f", job.SystemJ/1000)
			//lint:ignore ecolint/zeroallocproof sampled end-event formatting, same tracer gate as the attrs map above
			attrs["cpu_kj"] = fmt.Sprintf("%.3f", job.CPUJ/1000)
		}
		c.tracer.Event(eventJobEnd, attrs)
	}
	c.acct.record(job)
	for _, fn := range c.onDone {
		fn(job)
	}
	if len(job.Desc.AfterOK) > 0 {
		c.depPending--
	}
	if c.aggregate {
		c.retire(job)
	}
}

// retire drops a terminal job from the arena, keeping only its final
// state code for dependency resolution — the memory bound that lets a
// run absorb millions of submissions. The record itself goes back to
// the pool for the next submission: in aggregate mode nothing retains
// a job past its completion hooks.
func (c *Controller) retire(job *Job) {
	id := job.ID
	if id >= 1 && id < c.nextID {
		idx := id - 1
		c.jobs[idx>>jobChunkBits][idx&jobChunkMask] = nil
	}
	for len(c.retired) <= id {
		c.retired = append(c.retired, retiredNone)
	}
	c.retired[id] = retireCode(job.State)
	if job.node == nil {
		c.jobPool = append(c.jobPool, job)
	}
}

// jobState resolves a job's current state by id, consulting retired
// jobs as well as live ones.
func (c *Controller) jobState(id int) (JobState, bool) {
	if j := c.jobByID(id); j != nil {
		return j.State, true
	}
	if id > 0 && id < len(c.retired) && c.retired[id] != retiredNone {
		return retiredState(c.retired[id]), true
	}
	return "", false
}

// Cancel is scancel: terminate a pending or running job.
func (c *Controller) Cancel(id int) error {
	job := c.jobByID(id)
	if job == nil {
		return fmt.Errorf("slurm: no job %d", id)
	}
	if job.State.Terminal() {
		return fmt.Errorf("slurm: job %d already %s", id, job.State)
	}
	freed := (*nodeD)(nil)
	var kickParts []*partition
	if job.State == StateRunning && job.node != nil {
		n := job.node
		if c.epActive {
			c.dropDraw(job, n)
		}
		switch {
		case job.coSecondary && n.coJob == job:
			// Co-scheduled secondary with its primary still running:
			// vacate the slot; the node stays claimed by the primary.
			n.coJob = nil
			job.node = nil
			kickParts = n.parts
		case job.coSecondary:
			// Promoted secondary (the primary already ended, taking the
			// hw job with it): the node frees without an hw job to end.
			freed = n
			c.releaseNode(n)
		case n.coJob != nil:
			// Primary with a live secondary: end the hw job and promote
			// the secondary instead of freeing the node.
			n.hwJob.End()
			n.unpinFrequency()
			co := n.coJob
			n.coJob = nil
			n.current = co
			n.hwJob = nil
			job.node = nil
			kickParts = n.parts
		default:
			freed = n
			n.hwJob.End()
			n.unpinFrequency()
			c.releaseNode(n)
		}
	}
	job.State = StateCancelled
	job.Reason = "Cancelled by user"
	job.EndTime = c.sim.Now()
	c.finish(job)
	switch {
	case c.depPending > 0:
		c.kickAll()
	case freed != nil:
		for _, p := range freed.parts {
			c.kick(p)
		}
	case kickParts != nil:
		// No node freed, but a co-scheduling slot (and power headroom)
		// opened on the node's partitions.
		for _, p := range kickParts {
			c.kick(p)
		}
	case job.part != nil:
		c.kick(job.part)
	}
	return nil
}

// Job returns a job by id. Retired jobs (aggregate accounting) are
// not returned.
func (c *Controller) Job(id int) (*Job, bool) {
	j := c.jobByID(id)
	return j, j != nil
}

// Squeue lists pending and running jobs, pending first, by id.
func (c *Controller) Squeue() []*Job {
	var out []*Job
	for _, chunk := range c.jobs {
		for _, j := range chunk {
			if j != nil && !j.State.Terminal() {
				out = append(out, j)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].State != out[b].State {
			return out[a].State == StatePending
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Sinfo reports node states.
func (c *Controller) Sinfo() []NodeInfo {
	out := make([]NodeInfo, len(c.nodes))
	for i, n := range c.nodes {
		info := NodeInfo{Name: n.name, State: "idle", Cores: n.hw.Spec().Cores}
		switch {
		case n.current != nil && n.drained:
			info.State = "drng" // draining: finishing its job, accepting nothing
			info.JobID = n.current.ID
		case n.current != nil:
			info.State = "alloc"
			info.JobID = n.current.ID
		case n.drained:
			info.State = "drain"
		}
		out[i] = info
	}
	return out
}

// DrainNode marks a node unavailable for new jobs (the `scontrol
// update nodename=X state=drain` admin operation). A running job
// finishes; nothing new is placed.
func (c *Controller) DrainNode(name string) error {
	return c.setDrain(name, true)
}

// ResumeNode returns a drained node to service.
func (c *Controller) ResumeNode(name string) error {
	if err := c.setDrain(name, false); err != nil {
		return err
	}
	c.scheduleAll()
	return nil
}

func (c *Controller) setDrain(name string, drained bool) error {
	for _, n := range c.nodes {
		if n.name != name {
			continue
		}
		n.drained = drained
		if drained {
			// Idle drained nodes leave the free pool; busy ones stay
			// claimed and simply never return to it while drained.
			if n.free {
				unlistFree(n)
			}
		} else {
			c.refreeNode(n)
		}
		return nil
	}
	return fmt.Errorf("slurm: no node %q", name)
}

// WaitFor advances simulated time until the job is terminal. It fails
// if the simulation runs out of events first (a scheduling deadlock).
// In aggregate mode the returned record may be a synthesized snapshot
// (id + final state): the live record is recycled at retirement.
func (c *Controller) WaitFor(id int) (*Job, error) {
	if st, ok := c.jobState(id); ok && st.Terminal() {
		if j := c.jobByID(id); j != nil {
			return j, nil
		}
		return &Job{ID: id, State: st}, nil
	}
	job := c.jobByID(id)
	if job == nil {
		return nil, fmt.Errorf("slurm: no job %d", id)
	}
	// The record can be retired and recycled for a different job while
	// we step; guard on the identity, not just the state.
	for job.ID == id && !job.State.Terminal() {
		if !c.sim.Step() {
			return job, fmt.Errorf("slurm: job %d stuck in %s with no pending events", id, job.State)
		}
	}
	if job.ID != id {
		st, _ := c.jobState(id)
		return &Job{ID: id, State: st}, nil
	}
	return job, nil
}

// Srun submits a job and waits for it — the paper's interactive path.
func (c *Controller) Srun(desc JobDesc) (*Job, error) {
	job, err := c.Submit(desc)
	if err != nil {
		return nil, err
	}
	return c.WaitFor(job.ID)
}

// Nodes exposes the hardware for telemetry attachment.
func (c *Controller) Nodes() []*hw.Node {
	out := make([]*hw.Node, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.hw
	}
	return out
}

// NodeByName returns a node's hardware by name.
func (c *Controller) NodeByName(name string) (*hw.Node, bool) {
	for _, n := range c.nodes {
		if n.name == name {
			return n.hw, true
		}
	}
	return nil, false
}

// Dependency resolution states.
type depState int

const (
	depReady depState = iota
	depWaiting
	depFailed
)

// dependencyState inspects a job's afterok list.
func (c *Controller) dependencyState(job *Job) depState {
	state := depReady
	for _, dep := range job.Desc.AfterOK {
		st, ok := c.jobState(dep)
		if !ok {
			return depFailed
		}
		switch {
		case st == StateCompleted:
			// satisfied
		case st.Terminal():
			return depFailed
		default:
			state = depWaiting
		}
	}
	return state
}
