package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty slice. xs is
// not modified.
func percentile(xs []float64, q float64) float64 {
	return percentileSorted(sortedCopy(xs), q)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted is percentile for a slice already in order: several
// quantiles of one large sample cost one sort.
func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo, hi = 0, 0
	}
	if hi >= len(s) {
		lo, hi = len(s)-1, len(s)-1
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// cpuNow returns the process's user+system CPU time so far, in ns.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (ru_maxrss is
// KiB on Linux, bytes on Darwin).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}

// nsPerOp times f(n) in batches until budget has elapsed (at least three
// batches) and returns the median batch's wall ns per operation. The
// median keeps one descheduled batch from moving the number.
func nsPerOp(budget time.Duration, n int, f func(n int)) float64 {
	f(n) // warm caches, pools and lazily grown buffers
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		f(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibNs times a fixed integer loop. It touches no memory and calls
// nothing, so between two runs of one binary it moves only when the box
// itself is slower: a noisy-neighbour flag for the numbers around it.
func calibNs() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if d := float64(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}
