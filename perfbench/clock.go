package main

import (
	"syscall"
	"time"
)

// now reads the host clock. The benchmark measures the program's own wall
// time, so these are its only host-clock reads.
func now() time.Time {
	return time.Now() //lint:allow wallclock the benchmark times host work; nothing it reads feeds a simulated report
}

// since returns the host seconds elapsed after start.
func since(start time.Time) float64 {
	return time.Since(start).Seconds() //lint:allow wallclock the benchmark times host work; nothing it reads feeds a simulated report
}

// rusage returns the process's CPU seconds (user plus system) and its peak
// resident set in MiB.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}
