package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything: a p99 over 200 samples is the
// second-largest sample, so it is reported as the highest percentile that
// still has minBeyond samples beyond it.
const minBeyond = 10

// tail is one reported latency percentile with its evidence.
type tail struct {
	Q     float64 // percentile actually reported, in (0, 1)
	Value float64
	N     int // sample count
}

// tailQuantile reports the want-quantile of xs, lowered to the highest
// quantile that leaves at least minBeyond samples above it when xs is too
// small for want. xs need not be sorted.
func tailQuantile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Q: want}
	}
	q := want
	if limit := 1 - float64(minBeyond)/float64(n); q > limit {
		q = limit
	}
	if q < 0.5 {
		q = 0.5
	}
	return tail{Q: q, Value: quantile(xs, q), N: n}
}

// quantile is the nearest-rank q-quantile of xs (0 for none): the
// smallest sample with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geoMeanOfMedians is the geometric mean of the medians of the groups
// (0 for none). Groups with a median of 0 are left out.
func geoMeanOfMedians(groups map[string][]float64) float64 {
	sum, n := 0.0, 0
	for _, xs := range groups {
		if m := median(xs); m > 0 {
			sum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
