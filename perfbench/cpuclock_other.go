//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to the wall clock where the process CPU clock is not
// wired up; the figures then include time other programs ran.
func cpuNow() time.Duration { return time.Since(processStart) }
