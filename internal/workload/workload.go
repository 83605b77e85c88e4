// Package workload generates and replays cluster-scale job streams
// for the Slurm simulator: declarative multi-client specifications
// (per-client Poisson/Gamma/Weibull interarrival processes, diurnal
// load windows, job-shape distributions), a deterministic generator
// that merges the client streams into one time-ordered submission
// sequence, and a versioned JSONL submission log that records every
// generated submission so a run can be replayed byte-identically.
//
// The package also owns the unified job-shape vocabulary: Shape
// describes what a job's executable does (a fixed FLOP budget or a
// fixed duration), and generated, replayed and hand-built jobs all
// carry the same Shape type end to end; Shape satisfies
// internal/slurm's Workload contract directly.
//
// All randomness flows through internal/simclock's seeded RNG, so a
// (spec, seed) pair fully determines the submission stream: two
// generators built from the same spec produce identical sequences,
// and a recorded log replays the exact stream that produced it.
package workload

import (
	"fmt"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
)

// ShapeKind enumerates what a job's executable does on a node.
type ShapeKind string

// Shape kinds.
const (
	// ShapeFixedWork is a job with a fixed FLOP budget: runtime =
	// work / throughput(config) — the HPCG evaluation jobs.
	ShapeFixedWork ShapeKind = "fixed-work"
	// ShapeSleep runs for a fixed duration regardless of configuration.
	ShapeSleep ShapeKind = "sleep"
)

// Resource profiles: the co-scheduling policy pairs a compute-bound
// job (HPCG-like) with a memory-bound one (STREAM-like) on a node,
// because the pair contends for different resources.
const (
	ProfileCompute = "compute"
	ProfileMemory  = "memory"
)

// Shape is the unified job-shape description shared by generated,
// replayed and hand-built jobs. It satisfies internal/slurm's
// Workload contract (Name + Plan), so a Shape can be registered as a
// workload or attached directly to a job description.
type Shape struct {
	Kind  ShapeKind `json:"kind"`
	Label string    `json:"label,omitempty"`
	// GFLOP is the fixed FLOP budget (ShapeFixedWork only).
	GFLOP float64 `json:"gflop,omitempty"`
	// Duration is the fixed runtime (ShapeSleep only).
	Duration time.Duration `json:"duration,omitempty"`
	// Profile classifies the job's dominant resource (ProfileCompute,
	// ProfileMemory, or empty = unclassified). Co-scheduling pairs
	// complementary profiles on one node; unclassified jobs are never
	// paired.
	Profile string `json:"profile,omitempty"`
}

// FixedWork returns a fixed-FLOP-budget shape.
func FixedWork(label string, gflop float64) Shape {
	return Shape{Kind: ShapeFixedWork, Label: label, GFLOP: gflop}
}

// Sleep returns a fixed-duration shape.
func Sleep(label string, d time.Duration) Shape {
	return Shape{Kind: ShapeSleep, Label: label, Duration: d}
}

// Name implements the slurm Workload contract.
func (s Shape) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return string(s.Kind)
}

// Plan implements the slurm Workload contract: (runtime, sustained
// GFLOPS) for the configuration on the node. A zero GFLOPS is valid
// for non-compute jobs.
func (s Shape) Plan(node *hw.Node, cfg perfmodel.Config) (time.Duration, float64) {
	switch s.Kind {
	case ShapeFixedWork:
		g := node.Calibration().GFLOPS(cfg)
		if g <= 0 {
			return 0, 0
		}
		return time.Duration(s.GFLOP / g * float64(time.Second)), g
	case ShapeSleep:
		return s.Duration, 0
	}
	return 0, 0
}

// Validate reports whether the shape is well-formed.
func (s Shape) Validate() error {
	switch s.Kind {
	case ShapeFixedWork:
		if s.GFLOP <= 0 {
			return fmt.Errorf("workload: fixed-work shape needs gflop > 0, got %g", s.GFLOP)
		}
	case ShapeSleep:
		if s.Duration <= 0 {
			return fmt.Errorf("workload: sleep shape needs duration > 0, got %v", s.Duration)
		}
	default:
		return fmt.Errorf("workload: unknown shape kind %q", s.Kind)
	}
	switch s.Profile {
	case "", ProfileCompute, ProfileMemory:
	default:
		return fmt.Errorf("workload: unknown shape profile %q", s.Profile)
	}
	return nil
}
