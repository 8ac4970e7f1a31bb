package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		tailPhi float64
		tail    float64
		median  float64
	}{
		{n: 0},
		{n: 19, median: 10}, // p90 would leave 1 beyond
		{n: 100, tailPhi: 0.9, tail: 90, median: 50},     // exactly 10 beyond p90
		{n: 999, tailPhi: 0.9, tail: 900, median: 500},   // p99 would leave 9
		{n: 1000, tailPhi: 0.99, tail: 990, median: 500}, // exactly 10 beyond p99
		{n: 20000, tailPhi: 0.999, tail: 19980, median: 10000},
		{n: 100000, tailPhi: 0.9999, tail: 99990, median: 50000},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.TailPhi != c.tailPhi || d.Tail != c.tail || d.Median != c.median {
			t.Errorf("n=%d: got %+v, want tail p%g=%v median %v", c.n, d, c.tailPhi, c.tail, c.median)
		}
	}
}

func TestPercentileRefusesUnsupportedTail(t *testing.T) {
	xs := seq(999)
	summarize(xs)
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("999 samples must not support p99")
	}
	xs = seq(1000)
	summarize(xs)
	v, err := percentile(xs, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	cases := []struct {
		name string
		cs   []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping fan-out", []interval{{110, 160}, {120, 150}, {140, 180}}, 30},
		{"touching", []interval{{110, 130}, {130, 150}}, 60},
		{"sticking out of the parent", []interval{{50, 120}, {190, 260}}, 70},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 100},
		{"covering everything", []interval{{90, 210}, {120, 130}}, 0},
		{"unsorted", []interval{{170, 180}, {105, 115}, {110, 120}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(p, c.cs); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2 {
		t.Errorf("median = %v, want 2 (rank ⌈n/2⌉)", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); math.Abs(m-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", m)
	}
}
