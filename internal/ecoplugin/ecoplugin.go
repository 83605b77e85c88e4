// Package ecoplugin is job_submit_eco — the Slurm job-submit plugin of
// the paper (§3.1.1, §4.2). On every submission it decides whether the
// job opts in, identifies the system (hash of /proc/cpuinfo +
// /proc/meminfo) and the application (binary hash), asks Chronus for
// the energy-efficient configuration, and rewrites the job description
// fields Slurm exposes: num_tasks, threads_per_cpu, min_frequency and
// max_frequency (paper Listing 4).
//
// The plugin is deliberately conservative: if prediction fails (no
// model, no benchmark history, Chronus unreachable) the job is left
// untouched and submitted as-is — an energy optimiser must never be
// the reason a job is lost.
package ecoplugin

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
	"ecosched/internal/trace"
)

// OptInComment is the sbatch comment that enables the plugin for a job
// in user mode: `#SBATCH --comment "chronus"` (paper §3.3).
const OptInComment = "chronus"

// SimpleHash is a byte-for-byte port of the paper's C hash (Listing 3):
// djb2 with the paper's seed 53871.
func SimpleHash(s string) uint64 { return hashMore(hashSeed, s) }

// hashSeed is Listing 3's initial hash value.
const hashSeed uint64 = 53871

// hashMore continues a djb2 hash over s, so a concatenation can be
// hashed piece by piece: hashMore(hashMore(seed, a), b) equals
// SimpleHash(a+b) without building a+b.
func hashMore[T string | []byte](hash uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		hash = ((hash << 5) + hash) + uint64(s[i]) // hash × 33 + c
	}
	return hash
}

// HashString renders a hash the way the plugin passes it to Chronus.
func HashString(h uint64) string { return strconv.FormatUint(h, 10) }

// SystemHash reads /proc/cpuinfo and /proc/meminfo through the given
// file system and hashes their concatenation — the system identifier
// of §4.2.1, including its error handling. The two files are hashed
// one after the other, so the 12 KB concatenation is never built.
func SystemHash(fs procfs.FileReader) (string, error) {
	cpuinfo, err := fs.ReadFile(procfs.PathCPUInfo)
	if err != nil {
		return "", fmt.Errorf("ecoplugin: system hash: %w", err)
	}
	meminfo, err := fs.ReadFile(procfs.PathMemInfo)
	if err != nil {
		return "", fmt.Errorf("ecoplugin: system hash: %w", err)
	}
	return HashString(hashMore(hashMore(hashSeed, cpuinfo), meminfo)), nil
}

// BinaryHash identifies the application. The paper's implementation
// never resolved the real binary contents (§6.1.2 admits a constant
// path was used); hashing the path string preserves that behaviour
// while still distinguishing applications.
func BinaryHash(binaryPath string) string {
	return HashString(SimpleHash(binaryPath))
}

// ErrBudgetExceeded reports that a prediction was refused (or
// abandoned) because its simulated decision latency would overrun the
// submit budget threaded through PredictRequest.Budget. The plugin
// treats it like any other prediction failure — the job is submitted
// unmodified — but counts it separately as a budget violation.
var ErrBudgetExceeded = errors.New("ecoplugin: prediction latency budget exceeded")

// PredictSource says which path answered a prediction, so cache
// provenance flows to callers without another signature change.
type PredictSource string

// Prediction sources.
const (
	// SourcePreloaded: the model pre-loaded on the head node's local
	// disk was read, decoded and swept (the paper's warm path).
	SourcePreloaded PredictSource = "preloaded"
	// SourceCache: the decoded-model cache answered; no file read, no
	// JSON decode, no optimizer sweep.
	SourceCache PredictSource = "cache"
	// SourceCold: the database + blob-storage path (the A2 ablation's
	// budget-blowing route).
	SourceCold PredictSource = "cold"
)

// PredictRequest identifies one submit-time prediction: the system
// and application hashes from job_submit_eco, plus the remaining
// latency budget the answer must fit in (zero = unenforced).
type PredictRequest struct {
	SystemHash string
	BinaryHash string
	Budget     time.Duration
}

// PredictResult is the answer: the energy-efficient configuration,
// the simulated decision latency spent producing it, and which path
// produced it.
type PredictResult struct {
	Config  perfmodel.Config
	Latency time.Duration
	Source  PredictSource
}

// Predictor is Chronus's slurm-config entry point as the plugin sees
// it. The context carries cancellation; the request carries the
// hashes and the budget; the result carries the configuration, the
// simulated decision latency (enforced against the Slurm plugin
// budget) and the source path. On error the result's Latency still
// reports the time spent before giving up.
type Predictor interface {
	Predict(ctx context.Context, req PredictRequest) (PredictResult, error)
}

// Plugin implements slurm.SubmitPlugin.
type Plugin struct {
	fs        procfs.FileReader
	predictor Predictor
	settings  settings.Store
	budget    time.Duration
	metrics   *metrics.Registry
	tracer    *trace.Tracer

	// Per-submission metric handles, resolved once in New so the
	// submit path never takes the registry map lock. All nil-safe.
	mSubmissions    *metrics.Counter
	mPredictLatency *metrics.BucketedHistogram
	mRewritten      *metrics.Counter
	mFallback       *metrics.Counter

	// Stats for observability and the A2 ablation. Fallbacks counts
	// submissions that were left unmodified because prediction failed
	// or would have blown the budget — the fail-open path.
	Submissions int
	Rewritten   int
	Fallbacks   int
	LastErr     error
}

var _ slurm.SubmitPlugin = (*Plugin)(nil)

// Option configures optional plugin behaviour.
type Option func(*Plugin)

// WithBudget sets the predicted-latency budget (slurm.conf's
// SchedulerParameters=eco_budget). When a prediction cannot fit, the
// plugin falls back to the unmodified job instead of stalling sbatch.
func WithBudget(d time.Duration) Option {
	return func(p *Plugin) { p.budget = d }
}

// WithMetrics attaches an observability registry.
func WithMetrics(r *metrics.Registry) Option {
	return func(p *Plugin) { p.metrics = r }
}

// WithTracer attaches a decision tracer; every submission then
// produces an eco.submit span recording the verdict, source and chosen
// configuration.
func WithTracer(t *trace.Tracer) Option {
	return func(p *Plugin) { p.tracer = t }
}

// New wires the plugin. The three collaborators are required; options
// configure the budget and metrics.
func New(fs procfs.FileReader, p Predictor, st settings.Store, opts ...Option) (*Plugin, error) {
	if fs == nil || p == nil || st == nil {
		return nil, fmt.Errorf("ecoplugin: nil collaborator")
	}
	plugin := &Plugin{fs: fs, predictor: p, settings: st}
	for _, opt := range opts {
		opt(plugin)
	}
	plugin.mSubmissions = plugin.metrics.Counter(metricSubmissions)
	plugin.mPredictLatency = plugin.metrics.BucketedHistogram(metricPredictLatency)
	plugin.mRewritten = plugin.metrics.Counter(metricRewritten)
	plugin.mFallback = plugin.metrics.Counter(metricFallback)
	return plugin, nil
}

// Budget returns the configured predicted-latency budget (zero =
// unenforced).
func (p *Plugin) Budget() time.Duration { return p.budget }

// Name implements slurm.SubmitPlugin; it is the name slurm.conf's
// JobSubmitPlugins=eco refers to.
func (*Plugin) Name() string { return "eco" }

// hashLatency is the simulated cost of reading and hashing the two
// kernel files at submit time.
const hashLatency = time.Millisecond

// Verdicts recorded on the chronus.eco.submit span — the per-decision
// attribution an operator replays with `chronus trace <job>`.
const (
	VerdictSkipped   = "skipped"   // the job did not opt in (or the plugin is off)
	VerdictRewritten = "rewritten" // the Listing 4 rewrite was applied
	VerdictFallback  = "fallback"  // prediction failed; job submitted unmodified
)

// Metric and span names (ecolint/metricname: package-level constants
// in the chronus.* namespace). SpanSubmit is exported because
// cmd/ecosim filters the decision trace by it.
const (
	SpanSubmit = "chronus.eco.submit"

	metricSubmissions      = "chronus.eco.plugin.submissions"
	metricPredictLatency   = "chronus.eco.plugin.predict_latency"
	metricRewritten        = "chronus.eco.plugin.rewritten"
	metricFallback         = "chronus.eco.plugin.fallback"
	metricBudgetViolations = "chronus.eco.plugin.budget_violations"
	// metricSourcePrefix is completed with the PredictSource value —
	// the sanctioned dynamic-name form (constant prefix + expression).
	metricSourcePrefix = "chronus.eco.plugin.source."
)

// JobSubmit implements slurm.SubmitPlugin. The span opened here is
// the parent of the whole prediction (predict → cache|load →
// optimize), so one trace covers the full decision.
func (p *Plugin) JobSubmit(ctx context.Context, desc *slurm.JobDesc, submitUID uint32) (time.Duration, error) {
	ctx, span := p.tracer.Start(ctx, SpanSubmit)
	lat, err := p.jobSubmit(ctx, desc, span)
	if span != nil {
		span.SetAttr("sim_latency", lat.String())
	}
	span.End(err)
	return lat, err
}

func (p *Plugin) jobSubmit(ctx context.Context, desc *slurm.JobDesc, span *trace.Span) (lat time.Duration, err error) {
	// Fail open even on a panic below (a predictor bug, a poisoned
	// model): sbatch must never lose the job over the energy optimiser.
	// The description is only mutated after a fully successful
	// prediction, so recovery can never observe a half-rewritten job.
	defer func() {
		if r := recover(); r != nil {
			if lat <= 0 {
				lat = hashLatency
			}
			err = p.fallBack(span, fmt.Errorf("ecoplugin: submit panic: %v", r))
		}
	}()
	p.Submissions++
	p.mSubmissions.Inc()

	st, err := p.settings.Load()
	if err != nil {
		// Unreadable settings: fail open, leave the job alone.
		return hashLatency, p.fallBack(span, err)
	}
	switch st.State {
	case settings.StateDeactivated:
		span.SetAttr("verdict", VerdictSkipped)
		return hashLatency, nil
	case settings.StateUser:
		if desc.Comment != OptInComment {
			span.SetAttr("verdict", VerdictSkipped)
			return hashLatency, nil
		}
	case settings.StateActive:
		// Every job is rewritten.
	}

	sysHash, err := SystemHash(p.fs)
	if err != nil {
		return hashLatency, p.fallBack(span, err)
	}
	binHash := BinaryHash(desc.BinaryPath)

	req := PredictRequest{SystemHash: sysHash, BinaryHash: binHash}
	if p.budget > 0 {
		// The hashes above already spent part of the budget.
		req.Budget = p.budget - hashLatency
		if req.Budget <= 0 {
			return hashLatency, p.fallBack(span, ErrBudgetExceeded)
		}
	}
	res, err := p.predictor.Predict(ctx, req)
	total := hashLatency + res.Latency
	p.mPredictLatency.ObserveDuration(res.Latency)
	if err != nil {
		return total, p.fallBack(span, err)
	}

	// The Listing 4 rewrite.
	desc.NumTasks = res.Config.Cores
	desc.ThreadsPerCPU = res.Config.ThreadsPerCore
	desc.MinFreqKHz = res.Config.FreqKHz
	desc.MaxFreqKHz = res.Config.FreqKHz
	p.Rewritten++
	p.mRewritten.Inc()
	p.metrics.Counter(metricSourcePrefix + string(res.Source)).Inc()
	p.LastErr = nil
	if span != nil {
		span.SetAttr("verdict", VerdictRewritten)
		span.SetAttr("source", string(res.Source))
		span.SetAttr("config", res.Config.String())
		span.SetAttr("predict_sim_latency", res.Latency.String())
	}
	return total, nil
}

// fallBack records a fail-open outcome — the job proceeds unmodified —
// and always returns nil so the caller can `return latency,
// p.fallBack(span, err)` without risking a rejection.
func (p *Plugin) fallBack(span *trace.Span, err error) error {
	p.LastErr = err
	p.Fallbacks++
	p.mFallback.Inc()
	if errors.Is(err, ErrBudgetExceeded) {
		p.metrics.Counter(metricBudgetViolations).Inc()
	}
	if span != nil {
		span.SetAttr("verdict", VerdictFallback)
		span.SetAttr("cause", err.Error())
	}
	return nil
}
