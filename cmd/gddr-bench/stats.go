package main

import (
	"math"
	"sort"

	"gddr/internal/stats"
)

// quantileOf is stats.Quantile with 0 for an empty sample, which a phase
// that served nothing reports instead of failing the whole run.
func quantileOf(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method) — the spread
// the benchmark contract judges run-to-run noise by.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := min(max(int(math.Floor(pos)), 0), n-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return math.Abs((at(3) - at(1)) / med)
}
