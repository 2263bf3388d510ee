//go:build !linux

package main

import "runtime"

// pinTo only locks the calling goroutine to its thread where processor
// affinity is not available.
func pinTo(int) (unpin func()) {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}
