package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile names the highest of p99, p95, p90 and p75 that still
// has at least ten of the n samples beyond it; ok is false when none
// has.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p, true
		}
	}
	return 0, false
}
