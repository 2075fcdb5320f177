// Package stats provides the statistical primitives Blaeu's mapping engine
// is built on: discretization, entropy and mutual information (the
// dependency measure used for theme detection), correlation baselines,
// normalization, and the missing-value-aware Euclidean distance.
package stats

import (
	"math"
	"sort"
)

// DefaultBins is the number of bins used when discretizing continuous
// variables for entropy estimation.
const DefaultBins = 10

// Discretizer maps continuous values to bin indices. The special index -1
// denotes a missing value.
type Discretizer struct {
	// Cuts are the ascending interior cut points; value v falls in bin i
	// where cuts[i-1] <= v < cuts[i] (bin 0 is (-inf, cuts[0])).
	Cuts []float64
}

// Bin returns the bin index for v, or -1 for NaN.
func (d *Discretizer) Bin(v float64) int {
	if math.IsNaN(v) {
		return -1
	}
	// Binary search over cut points.
	lo, hi := 0, len(d.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < d.Cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NewDiscretizer fits an equal-frequency discretizer — cuts at the
// quantiles, so bins hold similar counts — with the given bin count on
// the non-NaN values. Repeated quantiles collapse into one cut, so a
// constant input yields one cut and an empty one a single bin.
func NewDiscretizer(vals []float64, bins int) *Discretizer {
	if bins < 1 {
		bins = 1
	}
	clean := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return &Discretizer{}
	}
	sort.Float64s(clean)
	var cuts []float64
	for b := 1; b < bins; b++ {
		pos := float64(b) / float64(bins) * float64(len(clean)-1)
		c := clean[int(math.Round(pos))]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return &Discretizer{Cuts: cuts}
}
