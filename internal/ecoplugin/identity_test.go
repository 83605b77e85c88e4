package ecoplugin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"ecosched/internal/fault"
	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

// System hashes of the paper's node (hw.DefaultSpec) at its default
// 2.5 GHz and pinned at 2.2 GHz, as the plugin has always computed
// them: pre-loaded models registered under these values must keep
// matching.
const (
	goldenHash2500MHz = "14146899155089638011"
	goldenHash2200MHz = "15301485379156314075"
)

// identityFiles serves fixed /proc/cpuinfo and /proc/meminfo bytes.
type identityFiles struct{ cpuinfo, meminfo []byte }

func (f identityFiles) ReadFile(path string) ([]byte, error) {
	switch path {
	case procfs.PathCPUInfo:
		return f.cpuinfo, nil
	case procfs.PathMemInfo:
		return f.meminfo, nil
	}
	return nil, fmt.Errorf("no %s here", path)
}

func TestSystemHashStreamsTheConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		files := identityFiles{make([]byte, rng.Intn(300)), make([]byte, rng.Intn(300))}
		rng.Read(files.cpuinfo)
		rng.Read(files.meminfo)
		want := HashString(SimpleHash(string(files.cpuinfo) + string(files.meminfo)))
		if got, err := SystemHash(files); err != nil || got != want {
			t.Fatalf("case %d (%d+%d bytes): streamed hash %s (err %v), concatenated hash %s",
				i, len(files.cpuinfo), len(files.meminfo), got, err, want)
		}
	}
	_, _, fs := newRig(t)
	got, err := SystemHash(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenHash2500MHz {
		t.Fatalf("SystemHash of the default node = %s, want %s", got, goldenHash2500MHz)
	}
}

// hashPredictor stands in for Chronus's pre-loaded lookup: it answers
// the paper's best configuration for one system hash and fails for any
// other, as slurm-config does when no model is registered.
type hashPredictor struct {
	known string
	calls int
	last  string // the last request's system hash
}

func (p *hashPredictor) Predict(_ context.Context, req PredictRequest) (PredictResult, error) {
	p.calls++
	p.last = req.SystemHash
	if req.SystemHash != p.known {
		return PredictResult{Latency: time.Millisecond}, fmt.Errorf("no pre-loaded model for system %s", req.SystemHash)
	}
	return PredictResult{Config: perfmodel.BestConfig(), Latency: 10 * time.Millisecond, Source: SourceCache}, nil
}

// A job pinned to 2.2 GHz on the head node changes /proc/cpuinfo's
// "cpu MHz" lines while it runs, so the identity read through the
// procfs memo must change with it and come back when the job ends.
func TestSystemHashFollowsHeadNodeFrequency(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	conf, err := slurm.ParseConf("JobSubmitPlugins=eco\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := slurm.NewCluster(sim, conf, slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", perfmodel.Default().JobGFLOP))
	st := settings.NewMemStore()
	if err := st.Save(settings.Defaults()); err != nil {
		t.Fatal(err)
	}
	fs := procfs.New(node)
	plugin, err := New(fs, &hashPredictor{known: goldenHash2500MHz}, st)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterPlugin(plugin)
	hash := func() string {
		t.Helper()
		h, err := SystemHash(fs)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	if h := hash(); h != goldenHash2500MHz {
		t.Fatalf("idle head node hash %s, want %s", h, goldenHash2500MHz)
	}
	job, err := c.SubmitScript("#!/bin/bash\n#SBATCH --ntasks=32\n#SBATCH --comment \"chronus\"\nsrun /opt/hpcg/xhpcg\n")
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if got := node.CurrentFreqKHz(); got != 2_200_000 {
		t.Fatalf("rewritten job runs the head node at %d kHz, want 2.2 GHz", got)
	}
	if h := hash(); h != goldenHash2200MHz {
		t.Fatalf("hash while the pinned job runs = %s, want %s", h, goldenHash2200MHz)
	}
	if _, err := c.WaitFor(job.ID); err != nil {
		t.Fatal(err)
	}
	if h := hash(); h != goldenHash2500MHz {
		t.Fatalf("hash after the pinned job ended = %s, want %s restored", h, goldenHash2500MHz)
	}
}

// A warm procfs memo must not hide a fault injected above it: a
// truncated /proc read hashes to an unknown system (the opt-in falls
// back), an unreadable /proc fails open before predicting, and the
// first clean read afterwards is rewritten again.
func TestProcfsMemoDoesNotMaskFaults(t *testing.T) {
	_, _, raw := newRig(t)
	inj := fault.New(1)
	st := settings.NewMemStore()
	if err := st.Save(settings.Defaults()); err != nil {
		t.Fatal(err)
	}
	pred := &hashPredictor{known: goldenHash2500MHz}
	p, err := New(fault.FileReader(raw, inj), pred, st)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(step string, wantRewritten bool) {
		t.Helper()
		rw, fb := p.Rewritten, p.Fallbacks
		desc := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", Comment: OptInComment, NumTasks: 64, MaxFreqKHz: 2_500_000}
		if _, err := p.JobSubmit(context.Background(), &desc, 1000); err != nil {
			t.Fatalf("%s: submit rejected: %v", step, err)
		}
		rewritten := desc.MaxFreqKHz == 2_200_000
		if rewritten != wantRewritten || p.Rewritten-rw != btoi(wantRewritten) || p.Fallbacks-fb != btoi(!wantRewritten) {
			t.Fatalf("%s: rewritten=%v (Rewritten +%d, Fallbacks +%d), want rewritten=%v",
				step, rewritten, p.Rewritten-rw, p.Fallbacks-fb, wantRewritten)
		}
	}
	submit("cold", true)
	submit("warm", true)

	inj.Use(fault.Rule{Op: fault.OpProcRead, Mode: fault.ModePartial})
	calls := pred.calls
	submit("partial read", false)
	if pred.calls != calls+1 || pred.last == goldenHash2500MHz {
		t.Fatalf("partial read: %d predictor calls, last hash %s; want one call with a hash other than the node's",
			pred.calls-calls, pred.last)
	}
	inj.Reset()
	submit("after partial read", true)

	inj.Use(fault.Rule{Op: fault.OpProcRead, Mode: fault.ModeError})
	calls = pred.calls
	submit("read error", false)
	if !errors.Is(p.LastErr, fault.ErrInjected) || pred.calls != calls {
		t.Fatalf("read error: LastErr = %v after %d predictor calls, want the injected error and none", p.LastErr, pred.calls-calls)
	}
	inj.Reset()
	submit("after read error", true)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newSteadyPlugin builds the plugin as a deployment wires it — a real
// procfs over the paper's node and settings on disk holding the
// node's pre-loaded model — with a stub predictor, and warms it.
func newSteadyPlugin(tb testing.TB) (*Plugin, slurm.JobDesc) {
	tb.Helper()
	const bin = "/opt/hpcg/xhpcg"
	fs := procfs.New(hw.NewNode(simclock.New(), hw.DefaultSpec(), perfmodel.Default(), 1))
	sysHash, err := SystemHash(fs)
	if err != nil {
		tb.Fatal(err)
	}
	st := settings.NewEtcStore(filepath.Join(tb.TempDir(), "settings.json"))
	s := settings.Defaults()
	s.SetModel(settings.LocalModel{ModelID: 1, SystemID: 1, SystemHash: sysHash, AppHash: BinaryHash(bin),
		Optimizer: "brute-force", Path: "/opt/chronus/optimizer/model-1.json"})
	if err := st.Save(s); err != nil {
		tb.Fatal(err)
	}
	p, err := New(fs, &hashPredictor{known: sysHash}, st)
	if err != nil {
		tb.Fatal(err)
	}
	desc := slurm.JobDesc{BinaryPath: bin, Comment: OptInComment, NumTasks: 64, MaxFreqKHz: 2_500_000}
	warm := desc
	if _, err := p.JobSubmit(context.Background(), &warm, 1000); err != nil || p.Rewritten != 1 {
		tb.Fatalf("warm-up submit: err %v, %d rewritten", err, p.Rewritten)
	}
	return p, desc
}

// BenchmarkPluginJobSubmit is the plugin layer alone: one opt-in
// JobSubmit with the machine state unchanged since the last submit.
func BenchmarkPluginJobSubmit(b *testing.B) {
	p, desc := newSteadyPlugin(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := desc
		if _, err := p.JobSubmit(ctx, &d, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// pluginSubmitAllocs is the measured allocation count of one opt-in
// JobSubmit when neither the machine state nor settings.json changed:
// the two caller-owned /proc copies, the system and binary hash
// strings, five in os.ReadFile of settings.json (two for the file, the
// path, stat and the buffer), the caller's LocalModels copy and the
// source metric name. Re-rendering /proc/cpuinfo alone costs hundreds.
const pluginSubmitAllocs = 11

func TestPluginJobSubmitAllocCeiling(t *testing.T) {
	p, desc := newSteadyPlugin(t)
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		d := desc
		if _, err := p.JobSubmit(ctx, &d, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if n > pluginSubmitAllocs {
		t.Fatalf("repeat-identity JobSubmit allocates %.1f times per call, ceiling %d", n, pluginSubmitAllocs)
	}
}
