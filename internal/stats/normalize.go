package stats

import "math"

// Scaler holds the fitted z-score parameters of one continuous variable
// (paper §3: "it normalizes the continuous variables").
type Scaler struct {
	// Center and Scale define the transform (v - Center) / Scale.
	Center, Scale float64
}

// FitScaler learns z-score parameters — the mean and the population
// standard deviation — from the non-NaN values. Degenerate
// (constant/empty) variables get Center 0 or Scale 1 so the transform is
// well defined.
func FitScaler(vals []float64) Scaler {
	s := Scaler{Center: Mean(vals), Scale: 1}
	if math.IsNaN(s.Center) {
		s.Center = 0
	}
	if sd := StdDev(vals); !math.IsNaN(sd) && sd > 0 {
		s.Scale = sd
	}
	return s
}

// Apply transforms one value (NaN passes through).
func (s Scaler) Apply(v float64) float64 {
	if math.IsNaN(v) {
		return v
	}
	return (v - s.Center) / s.Scale
}
