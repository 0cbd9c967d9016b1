package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A usage is the process-wide cost of one timed region: wall time, CPU
// time on every thread, and Go heap allocations.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// A meter brackets a timed region. The allocation counters are read
// outside the wall-clock interval, so ReadMemStats's stop-the-world
// pause is not charged to the region.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.bytes = ms.Mallocs, ms.TotalAlloc
	m.cpu = cpuTime()
	m.wall = time.Now()
}

func (m *meter) stop() usage {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: wall, cpu: cpu, mallocs: ms.Mallocs - m.mallocs, bytes: ms.TotalAlloc - m.bytes}
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs that has at least ten
// samples above it, and its value (nearest rank). When no percentile
// above the median qualifies (fewer than 40 samples), the median stands
// in as percentile 50: the maximum of a handful of samples measures the
// noisiest one, not a tail. Callers print the sample count beside it.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
