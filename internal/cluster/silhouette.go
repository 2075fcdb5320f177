package cluster

import (
	"math"
	"math/rand"

	"repro/internal/store"
)

// Silhouette returns the average silhouette width of a clustering over the
// oracle: for each object, s(i) = (b(i) - a(i)) / max(a(i), b(i)) where
// a(i) is the mean distance to the object's own cluster and b(i) the mean
// distance to the nearest other cluster. The result lies in [-1, 1];
// higher is better. Objects in singleton clusters score 0, following
// Kaufman & Rousseeuw. Exact computation is O(n²).
//
// Blaeu uses the silhouette both as a per-cluster quality indicator shown
// to the user and as the criterion for choosing the number of clusters k
// (paper §3, "Number of clusters").
func Silhouette(o Oracle, labels []int, k int) float64 {
	avg, _ := silhouettes(o, labels, k)
	return avg
}

// silhouettes runs the one O(n²) silhouette kernel both results come
// from — the average width and each cluster's mean width — so a caller
// that needs both (AutoK, for the k it keeps) pays for one pass. The two
// are accumulated apart, not derived from each other, so each keeps its
// own summation order.
func silhouettes(o Oracle, labels []int, k int) (avg float64, perCluster []float64) {
	perCluster = make([]float64, k)
	if o.N() == 0 || k < 2 {
		return 0, perCluster
	}
	sizes := make([]int, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			sizes[l]++
		}
	}
	// Where a row is a read of stored cells the kernel takes a row per
	// object. Elsewhere it reads pairs through Dist, never rows:
	// LazyOracle counts row materializations as evaluations, so this keeps
	// scoring a clustering out of the build's distance-work account.
	var row []float64
	switch o.(type) {
	case *DistMatrix, *matrixView:
		row = make([]float64, o.N())
	}
	cnt := make([]int, k)
	total := silhouetteKernel(o, labels, sizes, row, make([]float64, k), perCluster, cnt)
	counted := 0
	for c, m := range cnt {
		counted += m
		if m > 0 {
			perCluster[c] /= float64(m)
		}
	}
	if counted > 0 {
		avg = total / float64(counted)
	}
	return avg, perCluster
}

// silhouetteKernel computes s(i) for every validly labelled object and
// adds it both to the returned total (in object order) and to its
// cluster's sum in perCluster, counting the object in cnt. Objects in
// singleton clusters, or with no other cluster to compare against, count
// with s(i) = 0. All buffers are the caller's: sums is the k-sized
// per-object scratch; row, n-sized, takes each object's distances, or is
// nil to read pairs — the same cells added in the same order either way.
//
//blaeu:hot
func silhouetteKernel(o Oracle, labels, sizes []int, row, sums, perCluster []float64, cnt []int) float64 {
	n, k := o.N(), len(sums)
	total := 0.0
	for i := 0; i < n; i++ {
		li := labels[i]
		if li < 0 || li >= k {
			continue
		}
		cnt[li]++
		if sizes[li] <= 1 {
			continue // s(i) = 0 by convention
		}
		for c := range sums {
			sums[c] = 0
		}
		if row != nil {
			o.RowInto(i, row)
			for j, lj := range labels[:n] {
				if j == i || lj < 0 || lj >= k {
					continue
				}
				sums[lj] += row[j]
			}
		} else {
			for j, lj := range labels[:n] {
				if j == i || lj < 0 || lj >= k {
					continue
				}
				sums[lj] += o.Dist(i, j)
			}
		}
		a := sums[li] / float64(sizes[li]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == li || sizes[c] == 0 {
				continue
			}
			if v := sums[c] / float64(sizes[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		if den := math.Max(a, b); den > 0 {
			s := (b - a) / den
			total += s
			perCluster[li] += s
		}
	}
	return total
}

// MCSilhouetteOptions tunes the Monte-Carlo silhouette estimator.
type MCSilhouetteOptions struct {
	// Rounds is the number of sub-samples to average over.
	Rounds int
	// SampleSize is the number of objects per sub-sample.
	SampleSize int
	// Rand is the randomness source (required).
	Rand *rand.Rand
}

func (o *MCSilhouetteOptions) defaults() {
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 256
	}
}

// MCSilhouette estimates the average silhouette width by averaging the
// exact silhouette of several random sub-samples, the Monte-Carlo scheme
// the paper describes (§3, "Sampling"): "it extracts a few sub-samples
// from the user's selection, computes the clustering quality of those, and
// averages the results". It reduces the O(n²) exact cost to
// O(rounds · s²) for sample size s.
func MCSilhouette(o Oracle, labels []int, k int, opts MCSilhouetteOptions) float64 {
	if opts.Rand == nil {
		panic("cluster: MCSilhouette requires a random source")
	}
	opts.defaults()
	n := o.N()
	if n <= opts.SampleSize {
		return Silhouette(o, labels, k)
	}
	total := 0.0
	for r := 0; r < opts.Rounds; r++ {
		idx := store.SampleIndices(n, opts.SampleSize, opts.Rand)
		sub := o.Subset(idx)
		subLabels := make([]int, len(idx))
		for i, gi := range idx {
			subLabels[i] = labels[gi]
		}
		total += Silhouette(sub, subLabels, k)
	}
	return total / float64(opts.Rounds)
}

// SilhouettePerCluster returns the mean silhouette width of each cluster,
// the per-region quality signal Blaeu surfaces to users.
func SilhouettePerCluster(o Oracle, labels []int, k int) []float64 {
	_, perCluster := silhouettes(o, labels, k)
	return perCluster
}
