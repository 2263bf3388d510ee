package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 processors.
type cpuMask [16]uint64

// pinTo locks the calling goroutine to its thread and that thread to
// processor cpu, and returns the function that undoes both. Where the
// affinity cannot be set it only locks the thread.
func pinTo(cpu int) (unpin func()) {
	runtime.LockOSThread()
	var old, mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(old), uintptr(unsafe.Pointer(&old)))
	if errno != 0 || cpu < 0 || cpu >= 64*len(mask) || old[cpu/64]&(1<<(cpu%64)) == 0 {
		return runtime.UnlockOSThread
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return runtime.UnlockOSThread
	}
	return func() {
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(old), uintptr(unsafe.Pointer(&old)))
		runtime.UnlockOSThread()
	}
}
