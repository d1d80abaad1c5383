package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTime = 3

// threadCPU reads the calling thread's CPU clock in ns: the time the
// thread has run. It leaves out the time the thread waited for a CPU
// and, where the kernel accounts steal time (paravirtual steal-time
// accounting), the time the hypervisor gave the vCPU to another tenant.
// The caller must hold its OS thread (runtime.LockOSThread) from one
// reading to the next.
func threadCPU() (int64, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return ts.Nano(), nil
}
