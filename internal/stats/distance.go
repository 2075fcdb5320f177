package stats

import "math"

// Distance measures dissimilarity between two equal-length vectors.
// Vectors may contain NaN entries (missing values); implementations use
// pairwise deletion with rescaling so that missing data does not bias
// distances toward zero.
type Distance interface {
	// Dist returns the dissimilarity between a and b (>= 0).
	Dist(a, b []float64) float64
	// Name identifies the metric.
	Name() string
}

// Euclidean is the L2 metric. Dimensions where either side is NaN are
// skipped and the sum is rescaled by dims/observed.
type Euclidean struct{}

// Dist implements Distance.
//
//blaeu:hot
func (Euclidean) Dist(a, b []float64) float64 {
	sum, seen := 0.0, 0
	for i := range a {
		x, y := a[i], b[i]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		d := x - y
		sum += d * d
		seen++
	}
	if seen == 0 {
		return 0
	}
	sum *= float64(len(a)) / float64(seen)
	return math.Sqrt(sum)
}

// Name implements Distance.
func (Euclidean) Name() string { return "euclidean" }
