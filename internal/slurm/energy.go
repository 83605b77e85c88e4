// Cluster-wide energy policies layered over the dispatch loop: a
// power model attributing per-node draw from the hardware frequency
// ladder and the job shape, partition/cluster power budgets enforced
// at placement (deny-and-wait or frequency-cap), co-scheduling of
// complementary compute/memory-bound shapes on one node with an
// interference penalty, and price/carbon-driven deferral of flexible
// jobs — the cluster-level counterpart of the paper's per-job
// frequency optimisation, after Zheng et al.'s power-bounded
// co-scheduling and Kiselev et al.'s cheap/green-window deferral.
//
// Every hook in the hot dispatch path is gated on Controller.epActive
// (and the per-policy flags), so a controller built without
// WithSchedPolicies pays one predictable branch per site and
// allocates nothing new.
package slurm

import (
	"fmt"
	"math"
	"time"

	"ecosched/internal/perfmodel"
	"ecosched/internal/workload"
)

// Pending-state reasons the policies leave on held jobs (squeue's
// Reason column vocabulary).
const (
	reasonPowerCap   = "PowerCap"
	reasonEnergyHold = "EnergyHold"
)

// Policy metric names (ecolint/metricname: package-level chronus.*).
const (
	metricCapDenials  = "chronus.cluster.policy.cap_denials"
	metricFreqCapped  = "chronus.cluster.policy.freq_capped"
	metricDeferred    = "chronus.cluster.policy.deferred_jobs"
	metricCoScheduled = "chronus.cluster.policy.co_scheduled"
)

// PowerModel attributes steady-state electrical draw to a node and to
// job placements on it, from the node's perfmodel calibration: the
// same frequency-ladder power surface the per-job optimiser uses,
// composed to system (DC) power with the thermal/fan model settled.
type PowerModel struct {
	calib *perfmodel.Calibration
}

// NewPowerModel builds a power model over a node's calibration.
func NewPowerModel(calib *perfmodel.Calibration) PowerModel {
	return PowerModel{calib: calib}
}

// IdleNodeW is the node's steady draw with no job scheduled: base
// system power plus the idle CPU package and the fan at the idle
// steady temperature.
func (pm PowerModel) IdleNodeW() float64 {
	idle := pm.calib.IdleCPUPowerW()
	return pm.calib.SystemPowerW(idle, pm.calib.SteadyTempC(idle))
}

// ActiveNodeW is the node's steady draw running a job in the given
// configuration.
func (pm PowerModel) ActiveNodeW(cfg perfmodel.Config) float64 {
	return pm.calib.SteadySystemPowerW(cfg)
}

// PlacementDeltaW is the draw increase of placing a job in the given
// configuration on an otherwise idle node — what the budget check
// charges a placement.
func (pm PowerModel) PlacementDeltaW(cfg perfmodel.Config) float64 {
	d := pm.ActiveNodeW(cfg) - pm.IdleNodeW()
	if d < 0 {
		return 0
	}
	return d
}

// CPUDeltaW is the CPU-package share of the placement delta, used to
// attribute CPU energy to co-scheduled secondaries.
func (pm PowerModel) CPUDeltaW(cfg perfmodel.Config) float64 {
	d := pm.calib.CPUPowerW(cfg, 1) - pm.calib.IdleCPUPowerW()
	if d < 0 {
		return 0
	}
	return d
}

// SchedPolicy is one cluster energy policy. Implementations configure
// the controller at construction (attach is deliberately unexported:
// the pluggable surface is policy selection and parameters — specs,
// CLI flags, WithSchedPolicies — not arbitrary dispatch callbacks,
// which could not stay deterministic or zero-alloc).
type SchedPolicy interface {
	Name() string
	attach(c *Controller) error
}

// Power-cap modes: what happens to a job whose placement would exceed
// the budget.
const (
	// CapModeWait denies the placement; the job stays queued with
	// reason PowerCap until draw drops.
	CapModeWait = "wait"
	// CapModeFreqCap walks the node's frequency ladder downward and
	// pins the job to the fastest frequency whose draw fits; only when
	// no rung fits does the job wait.
	CapModeFreqCap = "freqcap"
)

// PartitionCapW is one named partition's power budget in watts.
type PartitionCapW struct {
	Partition string
	CapW      float64
}

// PowerCapPolicy enforces power budgets at dispatch: a job places
// only if every affected partition's post-placement draw (idle floor
// included) stays within its cap. ClusterCapW is prorated across
// partitions by node count; explicit PartitionCapsW entries override
// downward. With shared node pools every partition sees the whole
// pool's draw, so the prorated caps collapse to one cluster-wide
// budget.
type PowerCapPolicy struct {
	ClusterCapW    float64
	PartitionCapsW []PartitionCapW
	Mode           string // CapModeWait (default) or CapModeFreqCap
}

// Name implements SchedPolicy.
func (p *PowerCapPolicy) Name() string { return "powercap" }

func (p *PowerCapPolicy) attach(c *Controller) error {
	switch p.Mode {
	case "", CapModeWait:
	case CapModeFreqCap:
		c.freqCap = true
	default:
		return fmt.Errorf("slurm: power-cap mode %q (want %q or %q)", p.Mode, CapModeWait, CapModeFreqCap)
	}
	if p.ClusterCapW < 0 {
		return fmt.Errorf("slurm: negative cluster power cap %g W", p.ClusterCapW)
	}
	if p.ClusterCapW == 0 && len(p.PartitionCapsW) == 0 {
		return fmt.Errorf("slurm: power-cap policy needs a cluster or partition budget")
	}
	if p.ClusterCapW > 0 {
		total := float64(len(c.nodes))
		for _, part := range c.parts {
			part.capW = p.ClusterCapW * float64(len(part.nodes)) / total
		}
	}
	for _, e := range p.PartitionCapsW {
		part, ok := c.partByName[e.Partition]
		if !ok {
			return fmt.Errorf("slurm: power cap names unknown partition %q", e.Partition)
		}
		if e.CapW <= 0 {
			return fmt.Errorf("slurm: partition %q power cap must be > 0 W, got %g", e.Partition, e.CapW)
		}
		if part.capW == 0 || e.CapW < part.capW {
			part.capW = e.CapW
		}
	}
	// A cap at or below the idle floor could never admit a job: reject
	// it loudly instead of silently starving the queue. (Partition
	// drawW holds exactly the idle floor at attachment time.)
	for _, part := range c.parts {
		if part.capW > 0 && part.capW <= part.drawW {
			return fmt.Errorf("slurm: partition %q power cap %.0f W is at or below its %.0f W idle floor; no job could ever start",
				part.name, part.capW, part.drawW)
		}
	}
	c.capActive = true
	return nil
}

// DefaultInterferencePenalty is the runtime stretch applied to a
// co-scheduled secondary when the policy does not set one: sharing a
// node costs ~25% even for complementary profiles.
const DefaultInterferencePenalty = 1.25

// CoSchedulePolicy pairs a compute-bound job with a memory-bound one
// (HPCG + STREAM profiles) on a single node when no idle node exists:
// the secondary runs alongside the primary, its runtime stretched by
// the interference penalty, its energy attributed from the power
// model. Jobs without a profile, or marked Exclusive, are never
// paired.
type CoSchedulePolicy struct {
	// InterferencePenalty multiplies the secondary's planned runtime
	// (>= 1; 0 selects DefaultInterferencePenalty).
	InterferencePenalty float64
}

// Name implements SchedPolicy.
func (p *CoSchedulePolicy) Name() string { return "cosched" }

func (p *CoSchedulePolicy) attach(c *Controller) error {
	pen := p.InterferencePenalty
	if pen == 0 {
		pen = DefaultInterferencePenalty
	}
	if pen < 1 {
		return fmt.Errorf("slurm: interference penalty %g < 1 (a shared node is never faster)", pen)
	}
	c.cosched = true
	c.coschedPenalty = pen
	return nil
}

// DeferralSignal reports the energy signal (spot price, carbon
// intensity) the deferral policy compares against its threshold. It
// must be a pure function of the simulated instant: the controller
// reads it at most once per instant and reuses that value for every
// held job the instant's passes visit, so a signal with hidden state
// or side effects would observe fewer calls than jobs. The
// indirection keeps this package decoupled from internal/energymarket.
type DeferralSignal func(t time.Time) float64

// DefaultDeferCheck is how often a held job re-reads the signal when
// the policy does not set a cadence.
const DefaultDeferCheck = 15 * time.Minute

// DeferralPolicy holds Deferrable jobs while Signal(now) exceeds
// Threshold, releasing each job when the signal drops, when its
// deadline leaves just enough slack to run within its time limit, or
// after MaxDefer past submission — whichever comes first. MaxDefer is
// mandatory: without it a high signal could starve jobs unboundedly.
type DeferralPolicy struct {
	Signal    DeferralSignal
	Threshold float64
	MaxDefer  time.Duration
	// Check is the signal re-evaluation cadence for held jobs (0 =
	// DefaultDeferCheck).
	Check time.Duration
}

// Name implements SchedPolicy.
func (p *DeferralPolicy) Name() string { return "deferral" }

func (p *DeferralPolicy) attach(c *Controller) error {
	if p.Signal == nil {
		return fmt.Errorf("slurm: deferral policy needs a signal")
	}
	if p.Threshold <= 0 {
		return fmt.Errorf("slurm: deferral threshold must be > 0, got %g", p.Threshold)
	}
	if p.MaxDefer <= 0 {
		return fmt.Errorf("slurm: deferral needs max defer > 0 (unbounded deferral starves jobs)")
	}
	check := p.Check
	if check < 0 {
		return fmt.Errorf("slurm: negative deferral check interval %v", p.Check)
	}
	if check == 0 {
		check = DefaultDeferCheck
	}
	c.deferral = true
	c.deferSignal = p.Signal
	c.deferSigTick = math.MinInt64 // no instant read yet
	c.deferThreshold = p.Threshold
	c.deferMax = p.MaxDefer
	c.deferCheck = check
	return nil
}

// PoliciesFromSpec builds the policy set a workload spec's policy
// block selects. The deferral signal is injected by the caller (built
// from internal/energymarket in the cluster driver); it is required
// exactly when the spec requests deferral.
func PoliciesFromSpec(ps *workload.PolicySpec, signal DeferralSignal) ([]SchedPolicy, error) {
	if ps == nil {
		return nil, nil
	}
	var out []SchedPolicy
	if ps.PowerCapW > 0 || len(ps.PartitionCapsW) > 0 {
		pc := &PowerCapPolicy{ClusterCapW: ps.PowerCapW, Mode: ps.CapMode}
		for _, e := range ps.PartitionCapsW {
			pc.PartitionCapsW = append(pc.PartitionCapsW, PartitionCapW{Partition: e.Name, CapW: e.CapW})
		}
		out = append(out, pc)
	}
	if ps.CoSchedule {
		out = append(out, &CoSchedulePolicy{InterferencePenalty: ps.InterferencePenalty})
	}
	if ps.Deferral != nil {
		if signal == nil {
			return nil, fmt.Errorf("slurm: spec requests deferral but no signal was provided")
		}
		out = append(out, &DeferralPolicy{
			Signal:    signal,
			Threshold: ps.Deferral.Threshold,
			MaxDefer:  ps.Deferral.MaxDefer.Std(),
			Check:     ps.Deferral.Check.Std(),
		})
	}
	return out, nil
}

// PolicyTotals counts policy decisions over a run — the per-policy
// fitness inputs beside energy/makespan/wait.
type PolicyTotals struct {
	// CapDenials counts placements denied outright by the power budget
	// (the job waited).
	CapDenials int64
	// FreqCapped counts placements that fit only after pinning a lower
	// frequency (CapModeFreqCap).
	FreqCapped int64
	// DeferredJobs counts jobs the deferral policy held at least once.
	DeferredJobs int64
	// ForcedDispatches counts held jobs released by their deadline or
	// max-defer bound rather than a favourable signal.
	ForcedDispatches int64
	// CoScheduled counts secondaries placed beside a running primary.
	CoScheduled int64
	// CapViolations counts partition-draw observations above cap at a
	// placement instant — always 0 unless the model is broken; the
	// property suite asserts it.
	CapViolations int64
}

// PolicyTotals returns the run's policy decision counts.
func (c *Controller) PolicyTotals() PolicyTotals { return c.ptotals }

// ActivePolicies lists the attached policy names in attachment order.
func (c *Controller) ActivePolicies() []string { return c.policyNames }

// PartitionDrawW reports a partition's modelled draw: current,
// run-peak, and cap (0 = uncapped). All zero when the policy layer is
// off or the partition is unknown.
func (c *Controller) PartitionDrawW(name string) (draw, peak, capW float64) {
	if p, ok := c.partByName[name]; ok {
		return p.drawW, p.peakDrawW, p.capW
	}
	return 0, 0, 0
}

// capSlack absorbs float accumulation noise in the cap comparison:
// draw is maintained incrementally (add on start, subtract on end)
// and a genuine violation overshoots by watts, not ulps.
const capSlack = 1e-9

// deferAction wakes a partition whose deferral hold may have expired.
// One pre-allocated action fired with the partition index as the
// pooled event argument — the same zero-alloc pattern as completion
// events.
type deferAction struct{ c *Controller }

func (a *deferAction) Fire(arg uint64) {
	p := a.c.parts[arg]
	// Wake events cannot be cancelled, so staleness is guarded here: a
	// duplicate superseded by a re-arm (different deferWakeTick) must be
	// dropped, not clear the armed flag — treating a stale fire as live
	// re-arms another wake per duplicate and the event population grows
	// geometrically at shared re-check instants.
	if !p.deferArmed || a.c.sim.NowTick() != p.deferWakeTick {
		return
	}
	p.deferArmed = false
	a.c.schedulePart(p)
}

// armDeferWake schedules a scheduling pass for the partition at the
// given tick, unless one is already armed at or before it.
func (c *Controller) armDeferWake(p *partition, at int64) {
	if p.deferArmed && at >= p.deferWakeTick {
		return
	}
	p.deferArmed = true
	p.deferWakeTick = at
	c.sim.AtAction(c.sim.Now().Add(time.Duration(at-c.sim.NowTick())), &c.deferAct, uint64(p.idx))
}

// deferBound returns the tick by which the deferral policy must release
// the job: MaxDefer past submission, or earlier when the deadline
// leaves only its time limit of slack. Submit computes it once per
// deferrable job. The bound is taken in time.Time arithmetic and
// converted to a tick relative to the submit tick, which saturates
// instead of overflowing for bounds far beyond the simulable range.
func (c *Controller) deferBound(job *Job) int64 {
	latest := job.SubmitTime.Add(c.deferMax)
	if !job.Desc.Deadline.IsZero() {
		// Dispatching by Deadline − TimeLimit leaves room for the worst
		// allowed runtime (the time limit truncates longer plans).
		if byDeadline := job.Desc.Deadline.Add(-job.Desc.TimeLimit); byDeadline.Before(latest) {
			latest = byDeadline
		}
	}
	d := latest.Sub(job.SubmitTime)
	if d > 0 && job.submitTick > math.MaxInt64-int64(d) {
		return math.MaxInt64
	}
	return job.submitTick + int64(d)
}

// deferSignalNow returns the deferral signal at the current instant.
// The value is memoised for the instant (DeferralSignal is a pure
// function of it), so a pass over a deep queue of held jobs, and every
// further pass at the same instant, costs one signal evaluation.
func (c *Controller) deferSignalNow() float64 {
	if now := c.sim.NowTick(); now != c.deferSigTick {
		c.deferSigTick = now
		c.deferSigVal = c.deferSignal(c.sim.Now())
	}
	return c.deferSigVal
}

// deferHold decides whether the deferral policy holds the job at the
// tick now, returning the next re-check tick when it does. The release
// order is: deadline/max-defer bound first (never starve), then a
// favourable signal.
func (c *Controller) deferHold(job *Job, now int64) (bool, int64) {
	if now >= job.deferUntil {
		if job.deferred {
			// Clear the flag so a forced job that still finds no node is
			// counted once, not once per scheduling pass.
			job.deferred = false
			c.ptotals.ForcedDispatches++
		}
		return false, 0
	}
	if c.deferSignalNow() <= c.deferThreshold {
		return false, 0
	}
	if !job.deferred {
		job.deferred = true
		c.ptotals.DeferredJobs++
		c.mDeferred.Inc()
	}
	wake := job.deferUntil
	if time.Duration(wake-now) > c.deferCheck {
		wake = now + int64(c.deferCheck)
	}
	return true, wake
}

// capAllows reports whether adding deltaW fits every capped partition
// sharing the node.
func (c *Controller) capAllows(n *nodeD, deltaW float64) bool {
	for _, p := range n.parts {
		if p.capW > 0 && p.drawW+deltaW > p.capW {
			return false
		}
	}
	return true
}

// placeWithinCap checks the job's placement on the claimed node
// against the power budget. In freq-cap mode a job without an
// explicit --cpu-freq request is pinned to the fastest ladder rung
// whose draw fits; explicit requests are honoured and wait instead.
func (c *Controller) placeWithinCap(job *Job, n *nodeD) bool {
	cfg := job.Desc.Config()
	if cfg.FreqKHz == 0 && len(n.spec.FrequenciesKHz) > 0 {
		// Unpinned jobs run at the governor's pick; charge the ladder
		// maximum so the estimate never undershoots the started draw.
		cfg.FreqKHz = n.spec.FrequenciesKHz[len(n.spec.FrequenciesKHz)-1]
	}
	if c.capAllows(n, n.pm.PlacementDeltaW(cfg)) {
		return true
	}
	if c.freqCap && job.Desc.MaxFreqKHz == 0 {
		for i := len(n.spec.FrequenciesKHz) - 2; i >= 0; i-- {
			f := n.spec.FrequenciesKHz[i]
			cfg.FreqKHz = f
			if c.capAllows(n, n.pm.PlacementDeltaW(cfg)) {
				job.Desc.MaxFreqKHz = f
				job.Desc.MinFreqKHz = f
				c.ptotals.FreqCapped++
				c.mFreqCapped.Inc()
				return true
			}
		}
	}
	return false
}

// addDraw charges a started job's draw delta to every partition
// sharing its node, tracking the peak and counting violations (which
// the budget check should make impossible).
func (c *Controller) addDraw(job *Job, n *nodeD, deltaW float64) {
	job.drawDeltaW = deltaW
	for _, p := range n.parts {
		p.drawW += deltaW
		if p.drawW > p.peakDrawW {
			p.peakDrawW = p.drawW
		}
		if p.capW > 0 && p.drawW > p.capW*(1+capSlack) {
			c.ptotals.CapViolations++
		}
	}
}

// dropDraw returns a finished job's draw delta.
func (c *Controller) dropDraw(job *Job, n *nodeD) {
	if job.drawDeltaW == 0 {
		return
	}
	for _, p := range n.parts {
		p.drawW -= job.drawDeltaW
	}
	job.drawDeltaW = 0
}

// pairCandidate reports whether the node's running primary could take
// a co-scheduled secondary: a non-exclusive primary with its own hw job
// on an undrained node whose secondary slot is empty.
func pairCandidate(n *nodeD) bool {
	pri := n.current
	return pri != nil && n.coJob == nil && !n.drained && n.hwJob != nil &&
		!pri.Desc.Exclusive && !pri.coSecondary
}

// pairProfileIdx indexes partition.pairRoom by a primary's profile;
// -1 for a profile no secondary pairs with.
func pairProfileIdx(profile string) int {
	switch profile {
	case workload.ProfileCompute:
		return 0
	case workload.ProfileMemory:
		return 1
	}
	return -1
}

// measurePairRoom fills the partition's pairing prefilter: the most
// free cores beside any pairing candidate, per primary profile.
func measurePairRoom(p *partition) {
	p.pairRoom = [2]int{}
	for _, n := range p.nodes {
		if !pairCandidate(n) {
			continue
		}
		i := pairProfileIdx(n.current.shapeProfile())
		if i < 0 {
			continue
		}
		if room := n.spec.Cores - n.current.Desc.NumTasks; room > p.pairRoom[i] {
			p.pairRoom[i] = room
		}
	}
	p.pairRoomOK = true
}

// markPairRoomStale invalidates the pairing prefilter of every
// partition sharing the node, which may have just become able to take
// a secondary (a primary started, its secondary slot emptied, or it
// left the drain state).
func markPairRoomStale(n *nodeD) {
	for _, p := range n.parts {
		p.pairRoomOK = false
	}
}

// tryPair attempts to co-schedule the job as a secondary beside a
// running primary of the complementary profile, scanning the
// partition's nodes in slot order (deterministic first-fit, like
// takeIdle). Returns true when the job started. A job needing more
// cores than the prefilter's room beside any primary of the wanted
// profile returns without the scan: no node could pass the core
// check below.
func (c *Controller) tryPair(p *partition, job *Job, now time.Time) bool {
	prof := job.shapeProfile()
	if prof == "" || job.Desc.Exclusive {
		return false
	}
	want := workload.ProfileCompute
	if prof == workload.ProfileCompute {
		want = workload.ProfileMemory
	}
	if !p.pairRoomOK {
		measurePairRoom(p)
	}
	if job.Desc.NumTasks > p.pairRoom[pairProfileIdx(want)] {
		return false
	}
	for _, n := range p.nodes {
		if !pairCandidate(n) {
			continue
		}
		pri := n.current
		if pri.shapeProfile() != want {
			continue
		}
		if pri.Desc.NumTasks+job.Desc.NumTasks > n.spec.Cores {
			continue
		}
		if job.Desc.ThreadsPerCPU > n.spec.ThreadsPerCore {
			continue
		}
		if job.Desc.MemoryMB > 0 && job.Desc.MemoryMB+pri.Desc.MemoryMB > n.spec.RAMGB*1024 {
			continue
		}
		if c.startSecondary(job, n, now) {
			return true
		}
	}
	return false
}

// startSecondary places the job beside the node's running primary:
// same frequency domain as the primary (one clock per package),
// runtime stretched by the interference penalty, draw and energy
// attributed from the power model. Returns false — job stays queued —
// when the budget, the deadline, or the plan refuses.
func (c *Controller) startSecondary(job *Job, n *nodeD, now time.Time) bool {
	if job.Desc.Shape == nil {
		return false
	}
	cfg := job.Desc.Config()
	cfg.FreqKHz = n.hwJob.Config.FreqKHz
	deltaW := n.pm.PlacementDeltaW(cfg)
	if c.capActive && !c.capAllows(n, deltaW) {
		return false
	}
	dur, gflops := job.Desc.Shape.Plan(n.hw, cfg)
	if dur <= 0 {
		return false
	}
	dur, timedOut := capRuntime(time.Duration(float64(dur)*c.coschedPenalty), job.Desc.TimeLimit)
	if !job.Desc.Deadline.IsZero() && now.Add(dur).After(job.Desc.Deadline) {
		return false
	}
	job.State = StateRunning
	job.Reason = ""
	job.StartTime = now
	job.startTick = c.sim.NowTick()
	job.NodeName = n.name
	job.GFLOPS = gflops
	job.timedOut = timedOut
	job.coSecondary = true
	job.node = n
	job.estSysW = deltaW
	job.estCPUW = n.pm.CPUDeltaW(cfg)
	n.coJob = job
	c.addDraw(job, n, deltaW)
	c.ptotals.CoScheduled++
	c.mCoScheduled.Inc()
	c.sim.AfterAction(dur, &c.compAct, uint64(job.ID))
	return true
}

// completeSecondary finishes a co-scheduled secondary: energy is the
// power-model estimate integrated over the runtime (the hw stack
// models only the primary). If the primary ended first the secondary
// was promoted to the node's occupant and its end frees the node.
func (c *Controller) completeSecondary(job *Job, n *nodeD) {
	secs := time.Duration(c.sim.NowTick() - job.startTick).Seconds()
	job.SystemJ = job.estSysW * secs
	job.CPUJ = job.estCPUW * secs
	job.EndTime = c.sim.Now()
	job.endTick = c.sim.NowTick()
	if job.timedOut {
		job.State = StateFailed
		job.Reason = "TimeLimit"
	} else {
		job.State = StateCompleted
	}
	c.dropDraw(job, n)
	switch {
	case n.coJob == job:
		// Primary still running: vacate the secondary slot.
		n.coJob = nil
		job.node = nil
		markPairRoomStale(n)
	case n.current == job:
		// Promoted (primary ended first): the node is now free. The
		// primary's completion already ended the hw job.
		c.releaseNode(n)
	}
	c.finish(job)
	if c.depPending > 0 {
		c.scheduleAll()
	} else {
		for _, p := range n.parts {
			c.schedulePart(p)
		}
	}
}
