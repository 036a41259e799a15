package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sumMedians is the sum of the medians of each of xss.
func sumMedians(xss [][]float64) float64 {
	t := 0.0
	for _, xs := range xss {
		t += median(xs)
	}
	return t
}

// tailPercentile is the highest of the reported percentiles (99.9,
// 99, 95, 90, 50) that still has at least minBeyond samples strictly
// above its rank, with its value. ok is false when even the median
// lacks that many samples beyond it.
func tailPercentile(xs []float64, minBeyond int) (p, v float64, ok bool) {
	s := sortedCopy(xs)
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		idx := rankIndex(len(s), p)
		if idx < 0 || len(s)-1-idx < minBeyond {
			continue
		}
		return p, s[idx], true
	}
	return 0, 0, false
}

// percentile is the nearest-rank percentile p (0..100) of xs; 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	idx := rankIndex(len(s), p)
	if idx < 0 {
		return 0
	}
	return s[idx]
}

// rankIndex is the 0-based index of the nearest-rank percentile p in
// a sorted sample of n values; -1 when n is 0.
func rankIndex(n int, p float64) int {
	if n == 0 {
		return -1
	}
	// The epsilon keeps float error (99.9/100*10000 > 9990) from
	// moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
