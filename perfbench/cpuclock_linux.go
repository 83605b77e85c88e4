package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are CPU times, read from the kernel's per-thread
// and per-process CPU clocks. On a shared virtual machine the host takes
// CPU away from the guest at will (steal reached 15–38% of a CPU while
// this benchmark was tuned), and wall time moves with it; the CPU clocks
// count only the time the program ran.
const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread. Its callers lock
// their goroutine to the thread (runtime.LockOSThread).
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU is the CPU time of the whole process: every goroutine's
// work, the garbage collector's and the runtime's.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }
