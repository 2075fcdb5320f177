package stats

import "math"

// Distance measures dissimilarity between two equal-length vectors.
// Vectors may contain NaN entries (missing values); implementations use
// pairwise deletion with rescaling so that missing data does not bias
// distances toward zero.
type Distance interface {
	// Dist returns the dissimilarity between a and b (>= 0).
	Dist(a, b []float64) float64
	// DistRow fills dst[j] = Dist(a, bs[j]) for every j, bit for bit, with
	// len(dst) == len(bs): the form the distance oracles fill rows
	// through, so an implementation can keep several pairs in flight.
	DistRow(a []float64, bs [][]float64, dst []float64)
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

// DistRow implements Distance four pairs at a time. The four sums are
// independent — the processor overlaps them, where Dist waits on one
// chain of dependent adds — and each runs over the dimensions in Dist's
// order and expression shape, so every cell is bit-identical to Dist. A
// lane skips Dist's NaN test: a missing value (or Inf - Inf) turns its
// sum into NaN, which nothing cancels, and those four cells are then
// Dist's; with nothing missing Dist's rescale is ×1.0 exactly and is
// skipped too. An a with a value missing, vectors of another length
// than a, and the last len(bs)%4 go through Dist.
//
//blaeu:hot
func (e Euclidean) DistRow(a []float64, bs [][]float64, dst []float64) {
	j, wide := 0, true
	for _, x := range a {
		wide = wide && x == x
	}
	for ; wide && j+4 <= len(bs); j += 4 {
		b0, b1, b2, b3 := bs[j], bs[j+1], bs[j+2], bs[j+3]
		if len(b0) == len(a) && len(b1) == len(a) && len(b2) == len(a) && len(b3) == len(a) {
			var s0, s1, s2, s3 float64
			for i, x := range a {
				d0, d1, d2, d3 := x-b0[i], x-b1[i], x-b2[i], x-b3[i]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			if s := s0 + s1 + s2 + s3; s == s {
				dst[j], dst[j+1], dst[j+2], dst[j+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
				continue
			}
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = e.Dist(a, b0), e.Dist(a, b1), e.Dist(a, b2), e.Dist(a, b3)
	}
	for ; j < len(bs); j++ {
		dst[j] = e.Dist(a, bs[j])
	}
}

// Name implements Distance.
func (Euclidean) Name() string { return "euclidean" }
