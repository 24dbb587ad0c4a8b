package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart approximates the instant the process began: package
// initialization runs before main, microseconds after exec. setup_s counts
// from here, so runtime start-up is inside it.
var processStart = time.Now()

// cpuSeconds is the process's user+system CPU time so far (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark: getrusage's
// ru_maxrss, which Linux reports in KiB and feeds from the same counter as
// VmHWM in /proc/self/status.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters is the slice of runtime.MemStats the per-layer allocation
// metrics need.
type memCounters struct {
	mallocs uint64
	gcs     uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, gcs: ms.NumGC}
}

// refKernel is the benchmark-owned machine-speed probe (bench.ref_rate): a
// fixed pure-Go integer loop that touches no repo code and no memory beyond
// registers. It is run between segments and REPORTED, never divided into a
// result — on this box normalising by it made quiet-period runs worse
// (README, noise findings).
func refKernel() (opsPerSec float64) {
	const iters = 2_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0).Seconds()
	refSink = x
	return iters / el
}

// refSink keeps refKernel's loop observable so the compiler cannot drop it.
var refSink uint64
