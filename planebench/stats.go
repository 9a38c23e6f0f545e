package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least q·n samples at or below it. An empty input
// yields NaN so a missing population can never pass for a measurement.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples; a percentile needs ten or more to be trusted.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 nearest-rank quantile of unsorted xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// perWindow holds the gated figures of each window or round of a run,
// as measured.
type perWindow map[string][]float64

func (p perWindow) add(name string, v float64) { p[name] = append(p[name], v) }

// medians is each figure's median over the windows.
func (p perWindow) medians() map[string]float64 {
	m := make(map[string]float64, len(p))
	for k, v := range p {
		m[k] = median(v)
	}
	return m
}

// scaled divides each end-to-end figure by the host's slowness, or
// multiplies it for a rate, so that it reads what it would on a host of
// the reference speed. CPU time per operation is scaled by the probe's
// CPU per request, every other figure by its request rate.
func scaled(e2e map[string]float64, slow slowness) map[string]float64 {
	m := make(map[string]float64, len(e2e))
	for k, v := range e2e {
		switch k {
		case "ops_per_s":
			m[k] = v * slow.Rate
		case "cpu_us_per_op":
			m[k] = v / slow.CPU
		default:
			m[k] = v / slow.Rate
		}
	}
	return m
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of process-wide cost counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gcs    uint32
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), allocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// delta is the cost between two snapshots.
type delta struct {
	wall   time.Duration
	cpu    time.Duration
	allocs float64
	bytes  float64
	gcs    float64
}

func (a usage) to(b usage) delta {
	return delta{
		wall:   b.wall.Sub(a.wall),
		cpu:    b.cpu - a.cpu,
		allocs: float64(b.allocs - a.allocs),
		bytes:  float64(b.bytes - a.bytes),
		gcs:    float64(b.gcs - a.gcs),
	}
}

func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.bytes += o.bytes
	d.gcs += o.gcs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
