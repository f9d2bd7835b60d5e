package main

import (
	"fmt"
	"math"
	"slices"
)

// tailLevels are the percentiles a latency summary may report as its
// tail, highest first. The tail is the highest one with at least
// minBeyond samples above it, so a small sample never reports a
// percentile it cannot support. p95 is the ceiling: on a shared 2-CPU
// host, the kv-read GET p99 moved by a third between runs even while
// the median held within a tenth, and p95 by half as much. p99 is
// still reported beside it.
var tailLevels = []float64{95, 90, 75, 50}

const minBeyond = 10

// lat keeps every latency sample (nanoseconds), so percentiles are exact
// order statistics with no bucket rounding.
type lat struct{ ns []int64 }

func (l *lat) add(ns int64) { l.ns = append(l.ns, ns) }

func (l *lat) merge(o *lat) { l.ns = append(l.ns, o.ns...) }

// summary is one latency distribution's reported figures, in
// microseconds. P99 is reported whatever the sample count; N says how
// far to trust it.
type summary struct {
	N       int
	P50     float64
	P99     float64
	TailPct float64 // which percentile Tail is
	Tail    float64
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50=%.1fus p99=%.1fus tail p%g=%.1fus", s.N, s.P50, s.P99, s.TailPct, s.Tail)
}

// percentile is the nearest-rank percentile of sorted: the smallest
// sample with at least p% of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// Multiply before dividing so whole ranks stay exact (0.9*100 is
	// not 90 in floating point, 90*100/100 is).
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevel picks the highest tail percentile that leaves at least
// minBeyond of n samples above it (0 when even the median cannot).
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

func (l *lat) summary() summary {
	s := slices.Clone(l.ns)
	slices.Sort(s)
	out := summary{N: len(s), P50: us(percentile(s, 50)), P99: us(percentile(s, 99))}
	if p := tailLevel(len(s)); p > 0 {
		out.TailPct, out.Tail = p, us(percentile(s, p))
	} else {
		out.TailPct, out.Tail = 100, us(percentile(s, 100))
	}
	return out
}

// mean returns the arithmetic mean in nanoseconds.
func (l *lat) mean() float64 {
	if len(l.ns) == 0 {
		return 0
	}
	var t int64
	for _, v := range l.ns {
		t += v
	}
	return float64(t) / float64(len(l.ns))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
