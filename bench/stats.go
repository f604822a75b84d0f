package main

import (
	"math"
	"sort"
)

// tailGuard is how many samples must lie beyond a reported percentile:
// with fewer, the number is a property of a handful of requests, not of
// the system.
const tailGuard = 10

// median of xs (0 for none). xs is not modified.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, lowered until at least tailGuard samples lie beyond
// it. eff is the percentile actually reported; ok is false when even the
// median has fewer than tailGuard samples beyond it.
func percentile(sorted []float64, p float64) (value, eff float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if limit := n - tailGuard; rank > limit {
		rank = limit
	}
	if rank < (n+1)/2 {
		return sorted[(n-1)/2], 50, false
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n), true
}

// segment is one equal slice of the measured phase. What disturbs a run
// on a shared machine — a neighbour's burst, a minute-long slow phase of
// the host — only ever slows it, so the reported numbers are those of
// the least-disturbed quarter of the segments: the upper quartile of the
// rates, the lower quartile of the times. A real regression moves every
// segment and so moves the quartile; a disturbance of up to three
// quarters of the run does not.
type segment struct {
	Done      int       // correct replies that completed inside the slice
	Latencies []float64 // their latencies, ms
}

// segmentStats reduces the segments of one client class to the two
// reported numbers: the upper quartile of completions per second and the
// lower quartile of the per-segment median latencies.
func segmentStats(segs []segment, segSeconds float64) (qps, p50ms float64) {
	rates := make([]float64, 0, len(segs))
	p50s := make([]float64, 0, len(segs))
	for _, s := range segs {
		rates = append(rates, float64(s.Done)/segSeconds)
		if len(s.Latencies) > 0 {
			p50s = append(p50s, median(s.Latencies))
		}
	}
	return highQuartile(rates), lowQuartile(p50s)
}

// lowQuartile and highQuartile are the first and third quartiles of xs
// (0 for none).
func lowQuartile(xs []float64) float64  { return quartileOf(xs, 0.25) }
func highQuartile(xs []float64) float64 { return quartileOf(xs, 0.75) }

func quartileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartile(s, q)
}

// allLatencies concatenates and sorts the segments' latencies.
func allLatencies(segs []segment) []float64 {
	var out []float64
	for _, s := range segs {
		out = append(out, s.Latencies...)
	}
	sort.Float64s(out)
	return out
}

// spread is the interquartile range of xs as a share of their median:
// the run-to-run noise a bound has to exceed to mean anything.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartile(s, 0.25), quartile(s, 0.75)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartile matches Python's statistics.quantiles(method="exclusive"),
// which the acceptance check uses.
func quartile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}
