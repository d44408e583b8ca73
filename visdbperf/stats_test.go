package main

import (
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Reverse order: percentile must sort.
		out[i] = time.Duration(n-i) * time.Millisecond
	}
	return out
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
		ok   bool
	}{
		{0, 50, 0, false},
		{19, 50, 10 * time.Millisecond, false}, // 9 samples above the median
		{20, 50, 10 * time.Millisecond, true},  // 10 above
		{21, 50, 11 * time.Millisecond, true},
		{99, 90, 90 * time.Millisecond, false}, // 9 above the p90
		{100, 90, 90 * time.Millisecond, true}, // 10 above
		{1000, 99, 990 * time.Millisecond, true},
		{999, 99, 990 * time.Millisecond, false},
	} {
		got, ok := percentile(durations(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 130}, {130, 150}}, 60},
		{"clipped to the parent", []interval{{50, 120}, {180, 260}}, 60},
		{"outside the parent", []interval{{10, 90}, {210, 300}}, 100},
		{"unsorted overlap", []interval{{160, 190}, {105, 150}, {140, 170}}, 15},
		{"covering", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
