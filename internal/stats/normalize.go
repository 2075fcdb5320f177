package stats

import (
	"math"

	"repro/internal/store"
)

// Scaler holds the fitted z-score parameters of one continuous variable
// (paper §3: "it normalizes the continuous variables").
type Scaler struct {
	// Center and Scale define the transform (v - Center) / Scale.
	Center, Scale float64
}

// FitScaler learns the z-score parameters of a numeric column — the
// mean and the population standard deviation of its finite values —
// in two passes over c.Float, in row order, so they carry the bits Mean
// and StdDev give over a copy of the column's finite values, without
// the copy. Nulls and ±Inf are left out alike: one infinite value would
// make the center infinite and every other value's z-score −Inf or NaN.
// A column with no finite value gets Center 0 and a constant one
// Scale 1, so the transform is defined.
func FitScaler(c store.Column) Scaler {
	sum, n := 0.0, 0
	for i := range c.Len() {
		if v := c.Float(i); isFinite(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return Scaler{Center: 0, Scale: 1}
	}
	s := Scaler{Center: sum / float64(n), Scale: 1}
	ss := 0.0
	for i := range c.Len() {
		if v := c.Float(i); isFinite(v) {
			d := v - s.Center
			ss += d * d
		}
	}
	if sd := math.Sqrt(ss / float64(n)); sd > 0 {
		s.Scale = sd
	}
	return s
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Apply transforms one value (NaN passes through).
func (s Scaler) Apply(v float64) float64 {
	if math.IsNaN(v) {
		return v
	}
	return (v - s.Center) / s.Scale
}
