package stats

import "math"

// Normalization selects how continuous variables are rescaled before
// clustering (paper §3: "it normalizes the continuous variables").
type Normalization int

const (
	// ZScore rescales to zero mean, unit standard deviation.
	ZScore Normalization = iota
	// MinMax rescales linearly to [0,1].
	MinMax
	// NoNormalization leaves values unchanged.
	NoNormalization
)

// Scaler holds fitted normalization parameters for one variable.
type Scaler struct {
	Method Normalization
	// Center and Scale define the transform (v - Center) / Scale.
	Center, Scale float64
}

// FitScaler learns normalization parameters from the non-NaN values.
// Degenerate (constant/empty) variables get Scale 1 so the transform is
// well defined.
func FitScaler(vals []float64, method Normalization) Scaler {
	s := Scaler{Method: method, Scale: 1}
	switch method {
	case ZScore:
		s.Center = Mean(vals)
		if math.IsNaN(s.Center) {
			s.Center = 0
		}
		sd := StdDev(vals)
		if !math.IsNaN(sd) && sd > 0 {
			s.Scale = sd
		}
	case MinMax:
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if !math.IsInf(min, 1) {
			s.Center = min
			if max > min {
				s.Scale = max - min
			}
		}
	case NoNormalization:
		s.Center, s.Scale = 0, 1
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
