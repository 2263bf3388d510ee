//go:build !linux

package kmp

// threadCPU reports no per-thread CPU clock off Linux; callers fall back
// to wall-clock spans.
func threadCPU() (tid uintptr, ns int64) { return 0, 0 }
