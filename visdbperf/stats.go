package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie above it, so a p90 needs 100 samples
// and a median 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples and whether the sample count supports it under the
// percentile rule. samples is not modified.
func percentile(samples []time.Duration, p float64) (time.Duration, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest rank: the smallest sample with at least p% of the sample
	// at or below it.
	idx := int(math.Ceil(float64(n)*p/100)) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// interval is a span of the benchmark's clock, in nanoseconds since
// the phase started.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that children
// cover. Children are clipped to the parent and may overlap each
// other: overlapping children count once, so self time never goes
// negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

const mib = 1 << 20
