package core

import (
	"fmt"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/telemetry"
	"ecosched/internal/workload"
)

// HPCGRunner is the HPCG Application Runner (paper §3.2, §4.2.3): it
// renders the sbatch file of Listing 6, submits it through Slurm, and
// waits for the accounting record.
type HPCGRunner struct {
	Controller *slurm.Controller
	HPCGPath   string  // path to the xhpcg binary, as the CLI takes it
	jobGFLOP   float64 // job size, kept so Rebind can re-register it
}

// NewHPCGRunner wires the runner and registers the HPCG workload model
// (fixed work, runtime from the node's calibrated throughput) with the
// controller.
func NewHPCGRunner(c *slurm.Controller, hpcgPath string, jobGFLOP float64) (*HPCGRunner, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil controller")
	}
	if hpcgPath == "" {
		return nil, fmt.Errorf("core: empty HPCG path")
	}
	if jobGFLOP <= 0 {
		return nil, fmt.Errorf("core: non-positive job size %v GFLOP", jobGFLOP)
	}
	c.RegisterWorkload(hpcgPath, workload.FixedWork("hpcg", jobGFLOP))
	return &HPCGRunner{Controller: c, HPCGPath: hpcgPath, jobGFLOP: jobGFLOP}, nil
}

// Rebind implements ClusterRebinder: the same HPCG application and job
// size on a freshly provisioned cluster.
func (r *HPCGRunner) Rebind(c *slurm.Controller) (ApplicationRunner, error) {
	return NewHPCGRunner(c, r.HPCGPath, r.jobGFLOP)
}

// Name implements ApplicationRunner.
func (r *HPCGRunner) Name() string { return "hpcg" }

// BinaryPath implements ApplicationRunner.
func (r *HPCGRunner) BinaryPath() string { return r.HPCGPath }

// Run implements ApplicationRunner.
func (r *HPCGRunner) Run(cfg perfmodel.Config) (RunResult, error) {
	script := slurm.RenderBatchScript(r.HPCGPath, cfg.Cores, cfg.FreqKHz, cfg.ThreadsPerCore)
	job, err := r.Controller.SubmitScript(script)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: hpcg submit: %w", err)
	}
	done, err := r.Controller.WaitFor(job.ID)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: hpcg wait: %w", err)
	}
	if done.State != slurm.StateCompleted {
		return RunResult{}, fmt.Errorf("core: hpcg job %d ended %s (%s)", done.ID, done.State, done.Reason)
	}
	rec, ok := r.Controller.Accounting().Record(done.ID)
	if !ok {
		return RunResult{}, fmt.Errorf("core: hpcg job %d has no accounting record", done.ID)
	}
	return RunResult{GFLOPS: rec.GFLOPS, Runtime: rec.Runtime()}, nil
}

// IPMISystemService is the System Service integration over the BMC
// (paper §3.2): it samples Total_Power, CPU_Power and CPU_Temp while
// a benchmark runs.
type IPMISystemService struct {
	Sim  *simclock.Sim
	Conn *ipmi.Conn
	Node *hw.Node
}

// NewIPMISystemService opens the BMC connection (needing root or the
// paper's `chmod o+r /dev/ipmi0`) and returns the service.
func NewIPMISystemService(sim *simclock.Sim, bmc *ipmi.BMC, node *hw.Node, asRoot bool) (*IPMISystemService, error) {
	conn, err := bmc.Open(asRoot)
	if err != nil {
		return nil, err
	}
	return &IPMISystemService{Sim: sim, Conn: conn, Node: node}, nil
}

// StartSampling implements SystemService.
func (s *IPMISystemService) StartSampling(interval time.Duration) func() *telemetry.Trace {
	trace := &telemetry.Trace{}
	sampler := ipmi.NewSampler(s.Sim, s.Conn, s.Node, trace)
	sampler.Start(interval)
	return func() *telemetry.Trace {
		sampler.Stop()
		return trace
	}
}
