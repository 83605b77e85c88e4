// Package procfs renders a virtual /proc and /sys view of a simulated
// node. The paper's components identify and inspect the machine by
// reading Linux special files — Chronus reads the DVFS ladder from
// /sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies,
// and job_submit_eco hashes /proc/cpuinfo and /proc/meminfo to build
// the system identifier (§4.2.1). Routing those reads through this
// package exercises the same parsing and error-handling paths against
// the simulated hardware.
package procfs

import (
	"bytes"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"ecosched/internal/hw"
)

// FileReader is the narrow read interface consumers depend on. The
// real system's equivalent is os.ReadFile.
type FileReader interface {
	ReadFile(path string) ([]byte, error)
}

// FS serves virtual /proc and /sys files for one node. Static files
// are rendered from the node spec; dynamic files (current frequency,
// governor) reflect the node's live state at read time.
//
// The identity files job_submit_eco hashes on every opt-in submit are
// rendered once per machine state, not once per read: /proc/meminfo is
// a function of the spec alone, and /proc/cpuinfo of the spec and the
// current frequency. A node's spec never changes after hw.NewNode, so
// the memo is exact, and it holds at most one text per frequency the
// governor can run (the spec ladder plus the calibrated P-states).
type FS struct {
	node *hw.Node

	meminfo []byte // rendered /proc/meminfo, fixed by the spec

	mu      sync.Mutex
	cpuinfo map[int][]byte // rendered /proc/cpuinfo by CurrentFreqKHz
}

// New returns a virtual procfs over the given node.
func New(node *hw.Node) *FS {
	f := &FS{node: node, cpuinfo: make(map[int][]byte)}
	f.meminfo = []byte(f.renderMemInfo())
	return f
}

// Paths served by FS.
const (
	PathCPUInfo    = "/proc/cpuinfo"
	PathMemInfo    = "/proc/meminfo"
	PathAvailFreqs = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
	PathCurFreq    = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"
	PathGovernor   = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
	PathIPMIDev    = "/dev/ipmi0"
)

// ReadFile implements FileReader for the supported paths. Unknown
// paths return fs.ErrNotExist wrapped with the path, like os.ReadFile.
// Like os.ReadFile, every call returns a fresh slice the caller owns:
// memoized texts are copied out, never shared.
func (f *FS) ReadFile(path string) ([]byte, error) {
	switch path {
	case PathCPUInfo:
		return f.cpuInfo(), nil
	case PathMemInfo:
		return bytes.Clone(f.meminfo), nil
	case PathAvailFreqs:
		return []byte(f.renderAvailFreqs()), nil
	case PathCurFreq:
		return []byte(fmt.Sprintf("%d\n", f.node.CurrentFreqKHz())), nil
	case PathGovernor:
		return []byte(string(f.node.Governor()) + "\n"), nil
	default:
		return nil, fmt.Errorf("procfs: read %s: %w", path, fs.ErrNotExist)
	}
}

// cpuInfo returns /proc/cpuinfo at the node's current frequency,
// rendering it only the first time that frequency is seen.
func (f *FS) cpuInfo() []byte {
	khz := f.node.CurrentFreqKHz()
	f.mu.Lock()
	defer f.mu.Unlock()
	text, ok := f.cpuinfo[khz]
	if !ok {
		text = []byte(f.renderCPUInfo(khz))
		f.cpuinfo[khz] = text
	}
	return bytes.Clone(text)
}

func (f *FS) renderCPUInfo(khz int) string {
	spec := f.node.Spec()
	var b strings.Builder
	logical := spec.Cores * spec.ThreadsPerCore
	mhz := float64(khz) / 1000
	for cpu := 0; cpu < logical; cpu++ {
		core := cpu % spec.Cores // Linux enumerates siblings after all cores
		fmt.Fprintf(&b, "processor\t: %d\n", cpu)
		fmt.Fprintf(&b, "vendor_id\t: AuthenticAMD\n")
		fmt.Fprintf(&b, "model name\t: %s\n", spec.CPUModel)
		fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n", mhz)
		fmt.Fprintf(&b, "physical id\t: 0\n")
		fmt.Fprintf(&b, "siblings\t: %d\n", logical)
		fmt.Fprintf(&b, "core id\t\t: %d\n", core)
		fmt.Fprintf(&b, "cpu cores\t: %d\n", spec.Cores)
		fmt.Fprintf(&b, "cache size\t: 512 KB\n")
		b.WriteString("\n")
	}
	return b.String()
}

func (f *FS) renderMemInfo() string {
	totalKB := int64(f.node.Spec().RAMGB) * 1024 * 1024
	var b strings.Builder
	fmt.Fprintf(&b, "MemTotal:       %d kB\n", totalKB)
	fmt.Fprintf(&b, "MemFree:        %d kB\n", totalKB*9/10)
	fmt.Fprintf(&b, "MemAvailable:   %d kB\n", totalKB*9/10)
	return b.String()
}

func (f *FS) renderAvailFreqs() string {
	freqs := append([]int(nil), f.node.Spec().FrequenciesKHz...)
	// sysfs lists available frequencies in descending order.
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	parts := make([]string, len(freqs))
	for i, f := range freqs {
		parts[i] = fmt.Sprintf("%d", f)
	}
	return strings.Join(parts, " ") + "\n"
}
