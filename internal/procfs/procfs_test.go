package procfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"testing"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
)

func newFS(t *testing.T) (*hw.Node, *FS) {
	t.Helper()
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	return node, New(node)
}

func TestCPUInfoShape(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathCPUInfo)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if got := strings.Count(text, "processor\t:"); got != 64 {
		t.Fatalf("cpuinfo lists %d logical CPUs, want 64 (32 cores × 2 threads)", got)
	}
	if !strings.Contains(text, "AMD EPYC 7502P") {
		t.Fatal("cpuinfo missing CPU model name")
	}
	if !strings.Contains(text, "cpu cores\t: 32") {
		t.Fatal("cpuinfo missing physical core count")
	}
}

func TestMemInfoShape(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathMemInfo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "MemTotal:       268435456 kB") {
		t.Fatalf("meminfo = %q, want 256 GB MemTotal", string(data))
	}
}

func TestAvailableFrequenciesDescending(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathAvailFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "2500000 2200000 1500000" {
		t.Fatalf("available frequencies = %q", got)
	}
}

func TestDynamicFilesTrackNodeState(t *testing.T) {
	node, f := newFS(t)
	read := func(p string) string {
		t.Helper()
		b, err := f.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(b))
	}
	if read(PathCurFreq) != "2500000" {
		t.Fatalf("cur_freq = %q under performance governor", read(PathCurFreq))
	}
	if read(PathGovernor) != "performance" {
		t.Fatalf("governor = %q", read(PathGovernor))
	}
	if err := node.SetGovernor(hw.GovernorPowersave); err != nil {
		t.Fatal(err)
	}
	if read(PathCurFreq) != "1500000" {
		t.Fatalf("cur_freq = %q under powersave governor", read(PathCurFreq))
	}
	if read(PathGovernor) != "powersave" {
		t.Fatalf("governor = %q after change", read(PathGovernor))
	}
}

func TestUnknownPathIsNotExist(t *testing.T) {
	_, f := newFS(t)
	_, err := f.ReadFile("/proc/loadavg")
	if err == nil {
		t.Fatal("unknown path read succeeded")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("error %v is not fs.ErrNotExist", err)
	}
	if !strings.Contains(err.Error(), "/proc/loadavg") {
		t.Fatalf("error %v does not name the path", err)
	}
}

// Every machine state the identity memo can see — each frequency of
// the ladder and the P-states pinned under userspace, plus the
// powersave and ondemand governors idle and loaded — reads back the
// same bytes as a fresh render, on the first read and on a memo hit.
func TestIdentityMemoMatchesFreshRender(t *testing.T) {
	node, f := newFS(t)
	check := func(state string) {
		t.Helper()
		khz := node.CurrentFreqKHz()
		for i := 0; i < 2; i++ {
			cpu, err := f.ReadFile(PathCPUInfo)
			if err != nil {
				t.Fatal(err)
			}
			if want := New(node).renderCPUInfo(khz); string(cpu) != want {
				t.Fatalf("%s read %d: memoized cpuinfo differs from a fresh render at %d kHz", state, i, khz)
			}
			mem, err := f.ReadFile(PathMemInfo)
			if err != nil {
				t.Fatal(err)
			}
			if want := New(node).renderMemInfo(); string(mem) != want {
				t.Fatalf("%s read %d: memoized meminfo differs from a fresh render", state, i)
			}
		}
	}
	check("performance")
	for _, g := range []hw.GovernorKind{hw.GovernorPowersave, hw.GovernorOndemand} {
		if err := node.SetGovernor(g); err != nil {
			t.Fatal(err)
		}
		check(string(g) + " idle")
	}
	job, err := node.StartJob(perfmodel.Config{Cores: 32, ThreadsPerCore: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("ondemand loaded")
	job.End()
	if err := node.SetGovernor(hw.GovernorUserspace); err != nil {
		t.Fatal(err)
	}
	freqs := append(append([]int(nil), node.Spec().FrequenciesKHz...), node.Calibration().PStatesKHz...)
	for _, khz := range freqs {
		if err := node.SetUserspaceFreq(khz); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("userspace %d kHz", khz))
	}
	if n, bound := len(f.cpuinfo), len(freqs); n > bound {
		t.Fatalf("cpuinfo memo holds %d texts, more than the %d frequencies the node can run", n, bound)
	}
}

// ReadFile keeps os.ReadFile's contract: the caller owns the slice, so
// writing to it cannot change what the next read returns.
func TestReadFileReturnsCallerOwnedCopy(t *testing.T) {
	_, f := newFS(t)
	for _, path := range []string{PathCPUInfo, PathMemInfo} {
		first, err := f.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := string(first)
		for i := range first {
			first[i] = 'X'
		}
		again, err := f.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != want {
			t.Fatalf("%s: writing to a returned slice changed the next read", path)
		}
	}
}

// Concurrent readers share the memo; run with -race.
func TestIdentityMemoConcurrentReads(t *testing.T) {
	_, f := newFS(t)
	want, err := f.ReadFile(PathCPUInfo)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := f.ReadFile(PathCPUInfo)
				if err != nil || string(got) != string(want) {
					t.Errorf("concurrent read %d: err %v, equal %v", i, err, string(got) == string(want))
					return
				}
				got[0] = 'X' // each reader owns its copy
				if _, err := f.ReadFile(PathMemInfo); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
