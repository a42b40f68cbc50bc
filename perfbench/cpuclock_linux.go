package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process CPU clock: the CPU time all of the process's
// threads have used. On a virtual machine with paravirtual steal accounting
// it excludes the time the hypervisor gave the CPU to someone else.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the clock id is valid on every Linux since 2.6.12
	}
	return time.Duration(ts.Nano())
}
