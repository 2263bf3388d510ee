package kmp

import (
	"syscall"
	"unsafe"
)

// threadCPU returns the calling OS thread's id and the CPU time it has
// consumed (CLOCK_THREAD_CPUTIME_ID), in nanoseconds; ns is 0 when the
// clock cannot be read. Raw syscalls: neither blocks, so the scheduler
// need not be told.
func threadCPU() (tid uintptr, ns int64) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	tid, _, _ = syscall.RawSyscall(syscall.SYS_GETTID, 0, 0, 0)
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return tid, 0
	}
	return tid, ts.Nano()
}
