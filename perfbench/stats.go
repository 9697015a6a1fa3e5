package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the p-th percentile, so a run can
// report whether its tail percentile had the ten samples beyond it that the
// metric needs.
func beyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// windowMedian is the median over windows of each window's p-th
// percentile.
func windowMedian(wins [][]float64, p float64) float64 {
	vals := make([]float64, len(wins))
	for i, w := range wins {
		vals[i] = percentile(w, p)
	}
	return median(vals)
}

// minBeyond is the fewest samples any window has beyond its p-th
// percentile.
func minBeyond(wins [][]float64, p float64) int {
	n := math.MaxInt
	for _, w := range wins {
		n = min(n, beyond(w, p))
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapAllocs reads the cumulative count of heap objects allocated by the
// process; differences around a region count its allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
