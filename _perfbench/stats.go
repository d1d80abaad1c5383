package main

import (
	"math"
	"slices"
)

// sortedFloats returns the values as float64, sorted ascending.
func sortedFloats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values; NaN when
// there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of unsorted values.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowed cuts v in order into windows of size values, takes stat of
// each window's sorted values, and returns the q-quantile of those.
func windowed(v []int64, size int, stat func(sorted []float64) float64, q float64) float64 {
	var per []float64
	for lo := 0; lo+size <= len(v); lo += size {
		per = append(per, stat(sortedFloats(v[lo:lo+size])))
	}
	slices.Sort(per)
	return quantile(per, q)
}

func p50(sorted []float64) float64 { return quantile(sorted, 0.50) }
func p90(sorted []float64) float64 { return quantile(sorted, 0.90) }

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// slowQ is the window quantile the frame workloads read: the slow state
// of the host. The frame loop's speed switches every few seconds between
// two states about 1.6x apart, and a run's plain figures move with the
// share of time it spent in each; the 90th percentile of window figures
// reads the slow state, which every run visits. README.md, Statistics,
// gives the measurements.
const slowQ = 0.90

// pairedOverhead is the median, over adjacent pairs of untraced and
// traced blocks, of the difference of their median latencies, in ns.
// Pairing keeps the host's speed changes out of the difference.
func pairedOverhead(untraced, traced [][]int64) float64 {
	d := make([]float64, len(untraced))
	for i := range untraced {
		d[i] = quantile(sortedFloats(traced[i]), 0.5) - quantile(sortedFloats(untraced[i]), 0.5)
	}
	return median(d)
}
