package main

import (
	"runtime/metrics"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for an empty slice.
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

// percentile returns the q-quantile of xs by the nearest-rank rule the
// repository's own latency reports use (index q·(n-1), rounded down). It
// sorts xs in place.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[int(q*float64(len(xs)-1))]
}

// runtimeSnap is the process-wide counters a trial is charged with.
type runtimeSnap struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the process
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector between two snapshots.
func gcFrac(a, b runtimeSnap) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}
