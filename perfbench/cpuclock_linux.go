package main

import (
	"syscall"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process's CPU clock in nanoseconds: time spent running
// by all of its threads, user and system. The kernel leaves out time a
// hypervisor stole from the vCPUs, which on a shared host is what makes
// wall-clock runs drift.
func cpuNow() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
