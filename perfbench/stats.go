package main

import (
	"fmt"
	"math"
	"sort"
)

// Dist is how every timing in this benchmark is reported: the median, the
// highest percentile with at least minBeyond samples beyond it, and the
// sample count. A percentile with fewer samples beyond it would be set by
// a handful of outliers, so none is reported.
type Dist struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	TailPhi float64 `json:"tail_phi"` // 0 when the sample supports no tail
	Tail    float64 `json:"tail"`
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailLadder lists the percentiles a Dist may report, highest first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9}

// rank is the 1-based rank of the ϕ-quantile of n samples, ⌈ϕ·n⌉, the
// definition qlove.ExactQuantiles uses.
func rank(n int, phi float64) int {
	r := int(math.Ceil(phi*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave minBeyond above the ϕ-quantile.
func supports(n int, phi float64) bool {
	return n > 0 && n-rank(n, phi) >= minBeyond
}

// summarize sorts xs in place and reports it.
func summarize(xs []float64) Dist {
	d := Dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.Median = xs[rank(len(xs), 0.5)-1]
	for _, phi := range tailLadder {
		if supports(len(xs), phi) {
			d.TailPhi, d.Tail = phi, xs[rank(len(xs), phi)-1]
			break
		}
	}
	return d
}

// percentile returns the ϕ-quantile of the sorted sample, or an error when
// the sample is too small to support it: a run that cannot support the
// percentile it names fails instead of reporting a number.
func percentile(sorted []float64, phi float64) (float64, error) {
	if !supports(len(sorted), phi) {
		return 0, fmt.Errorf("%d samples cannot support p%g (need %d beyond it)", len(sorted), 100*phi, minBeyond)
	}
	return sorted[rank(len(sorted), phi)-1], nil
}

// interval is a half-open span of time in Unix nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

func (iv interval) contains(o interval) bool { return iv.start <= o.start && o.end <= iv.end }

// covered returns how much of p the union of cs covers. Children may
// overlap each other (a fan-out waits on several replicas at once) and may
// stick out of p (clocks of two processes); each instant counts once.
func covered(p interval, cs []interval) int64 {
	clipped := make([]interval, 0, len(cs))
	for _, c := range cs {
		c.start = max(c.start, p.start)
		c.end = min(c.end, p.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var sum int64
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range clipped {
		if c.start > cur.end {
			if cur.end > cur.start {
				sum += cur.dur()
			}
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	if cur.end > cur.start {
		sum += cur.dur()
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(p interval, cs []interval) int64 { return p.dur() - covered(p, cs) }

// median returns the median of xs (sorting it in place), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), 0.5)-1]
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
