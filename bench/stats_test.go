package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
	if v, eff, ok := percentile(seq(1000), 99); !ok || v != 990 || eff != 99 {
		t.Errorf("p99 of 1..1000 = %v (p%v, ok=%v), want 990 (p99, true)", v, eff, ok)
	}
	// 200 samples: p99 would be rank 198 with two beyond; it is lowered to
	// rank 190 and says so.
	if v, eff, ok := percentile(seq(200), 99); !ok || v != 190 || eff != 95 {
		t.Errorf("p99 of 1..200 = %v (p%v, ok=%v), want 190 (p95, true)", v, eff, ok)
	}
	// p95 of 200 is rank 190 already.
	if v, _, ok := percentile(seq(200), 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", v)
	}
	// 15 samples cannot support any tail: the median comes back, flagged.
	if v, eff, ok := percentile(seq(15), 99); ok || v != 8 || eff != 50 {
		t.Errorf("p99 of 1..15 = %v (p%v, ok=%v), want the median 8 flagged", v, eff, ok)
	}
	if _, _, ok := percentile(nil, 99); ok {
		t.Error("percentile of nothing reported ok")
	}
}

func TestLeastDisturbedQuarterOfSegments(t *testing.T) {
	// Four quiet segments and six slowed by the host: neither number
	// moves.
	segs := make([]segment, 10)
	for i := range segs {
		segs[i] = segment{Done: 200, Latencies: []float64{1, 2, 3}}
		if i >= 4 {
			segs[i] = segment{Done: 140 + i, Latencies: []float64{2, 3, 40}}
		}
	}
	qps, p50 := segmentStats(segs, 2)
	if qps != 100 || p50 != 2 {
		t.Errorf("segmentStats = %v req/s, %v ms; want 100, 2", qps, p50)
	}
	// A regression slows every segment and shows in full.
	for i := range segs {
		segs[i].Done /= 2
	}
	if qps, _ := segmentStats(segs, 2); qps != 50 {
		t.Errorf("halved rates give %v req/s, want 50", qps)
	}
	for i := range segs {
		segs[i].Done *= 2
	}
	if got := allLatencies(segs); len(got) != 30 || got[0] != 1 || got[29] != 40 {
		t.Errorf("allLatencies: %d values from %v to %v", len(got), got[0], got[len(got)-1])
	}
	if median(nil) != 0 || median([]float64{3, 1}) != 2 {
		t.Error("median of none or of two is off")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := seq(10)
	if q1, q3 := quartile(xs, 0.25), quartile(xs, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}
