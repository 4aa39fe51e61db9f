//go:build !linux

package main

// cpuNow falls back to the wall clock where the process CPU clock is not
// wired up; the CPU metrics then include time other processes took.
func cpuNow() int64 { return now() }
