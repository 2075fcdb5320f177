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
	if o.N() == 0 || k < 2 {
		return 0
	}
	total, _, cnt := silhouetteSums(o, labels, k)
	counted := 0
	for _, c := range cnt {
		counted += c
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// silhouetteSums runs the one O(n²) silhouette kernel both results come
// from: for every validly labelled object it computes s(i) and adds it
// both to the running total (in object order) and to its cluster's sum,
// counting the object in cnt. The two accumulations are kept apart — not
// derived from each other — so the average width and the per-cluster
// means each keep their own summation order. Objects in singleton
// clusters, or with no other cluster to compare against, count with
// s(i) = 0.
func silhouetteSums(o Oracle, labels []int, k int) (total float64, perCluster []float64, cnt []int) {
	sizes := make([]int, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			sizes[l]++
		}
	}
	perCluster = make([]float64, k)
	cnt = make([]int, k)
	total = silhouetteKernel(o, labels, sizes, make([]float64, k), perCluster, cnt)
	return total, perCluster, cnt
}

// silhouetteKernel is silhouetteSums over buffers its caller allocated;
// sums is its k-sized per-object scratch. It reads pairs through Dist, never
// rows: LazyOracle counts row materializations as evaluations, so this
// keeps scoring a clustering out of the build's distance-work account.
//
//blaeu:hot
func silhouetteKernel(o Oracle, labels, sizes []int, sums, perCluster []float64, cnt []int) float64 {
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
		for j, lj := range labels[:n] {
			if j == i || lj < 0 || lj >= k {
				continue
			}
			sums[lj] += o.Dist(i, j)
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
	if o.N() == 0 || k < 2 {
		return make([]float64, k)
	}
	_, out, cnt := silhouetteSums(o, labels, k)
	for c := range out {
		if cnt[c] > 0 {
			out[c] /= float64(cnt[c])
		}
	}
	return out
}
