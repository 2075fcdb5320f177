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
	var sc silScratch
	return sc.silhouettes(o, labels, k, make([]float64, k))
}

// silScratch is the storage of the silhouette kernel: the cluster sizes
// and counts, the per-object sums and the row buffer.
type silScratch struct {
	sizes, cnt []int
	sums, row  []float64
}

// silhouettes runs the one O(n²) silhouette kernel both results come
// from — the average width, returned, and each cluster's mean width,
// written into the k-sized perCluster — so a caller that needs both
// (AutoK, for the k it keeps) pays for one pass. The two are accumulated
// apart, not derived from each other, so each keeps its own summation
// order.
func (sc *silScratch) silhouettes(o Oracle, labels []int, k int, perCluster []float64) (avg float64) {
	clear(perCluster)
	if o.N() == 0 || k < 2 {
		return 0
	}
	sizes := grow(sc.sizes, k)
	sc.sizes = sizes
	clear(sizes)
	for _, l := range labels {
		if l >= 0 && l < k {
			sizes[l]++
		}
	}
	sc.row = grow(sc.row, o.N())
	cnt := grow(sc.cnt, k)
	sc.cnt = cnt
	clear(cnt)
	sc.sums = grow(sc.sums, k)
	total := silhouetteKernel(o, labels, sizes, sc.row, sc.sums, perCluster, cnt)
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
	return avg
}

// silhouetteKernel computes s(i) for every validly labelled object and
// adds it both to the returned total (in object order) and to its
// cluster's sum in perCluster, counting the object in cnt. Objects in
// singleton clusters, or with no other cluster to compare against, count
// with s(i) = 0. All buffers are the caller's: sums is the k-sized
// per-object scratch; row, n-sized, takes each object's distances.
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
		o.RowInto(i, row)
		for j, lj := range labels[:n] {
			if j == i || lj < 0 || lj >= k {
				continue
			}
			sums[lj] += row[j]
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

// The Monte-Carlo silhouette averages mcRounds sub-samples of
// mcSampleSize objects each.
const (
	mcRounds     = 4
	mcSampleSize = 256
)

// MCSilhouette estimates the average silhouette width by averaging the
// exact silhouette of several random sub-samples, the Monte-Carlo scheme
// the paper describes (§3, "Sampling"): "it extracts a few sub-samples
// from the user's selection, computes the clustering quality of those, and
// averages the results". It reduces the O(n²) exact cost to
// O(rounds · s²) for sample size s, and is exact when n is at most s. rng
// is the randomness source (required).
func MCSilhouette(o Oracle, labels []int, k int, rng *rand.Rand) float64 {
	return new(Scratch).mcSilhouette(o, labels, k, rng)
}

// mcRound is the storage of one Monte-Carlo silhouette round: the
// sample's ids and the bitmap they were drawn through, their labels and
// the storage of the subset over them.
type mcRound struct {
	ids    []int
	taken  []uint64
	labels []int
	sub    subsetStore
}

// mcSilhouette is MCSilhouette in s: each round in s.mc, its kernel in
// s.sil. The per-cluster means it computes along the way are dropped.
func (s *Scratch) mcSilhouette(o Oracle, labels []int, k int, rng *rand.Rand) float64 {
	if rng == nil {
		panic("cluster: MCSilhouette requires a random source")
	}
	n := o.N()
	if n <= mcSampleSize {
		return s.sil.silhouettes(o, labels, k, s.perCluster(k))
	}
	m := &s.mc
	total := 0.0
	for r := 0; r < mcRounds; r++ {
		m.ids, m.taken = store.SampleIndicesInto(n, mcSampleSize, rng, m.ids, m.taken)
		sub := subsetIn(&m.sub, o, m.ids)
		m.labels = grow(m.labels, len(m.ids))
		for i, gi := range m.ids {
			m.labels[i] = labels[gi]
		}
		total += s.sil.silhouettes(sub, m.labels, k, s.perCluster(k))
	}
	return total / mcRounds
}

// SilhouettePerCluster returns the mean silhouette width of each cluster,
// the per-region quality signal Blaeu surfaces to users.
func SilhouettePerCluster(o Oracle, labels []int, k int) []float64 {
	return new(Scratch).SilhouettePerCluster(o, labels, k)
}

// SilhouettePerCluster is the package's SilhouettePerCluster in the
// scratch's buffers. The slice it returns is the scratch's, valid until
// its next AutoK or SilhouettePerCluster; labels may be the scratch's
// own, the Labels of the clustering its last AutoK returned.
func (s *Scratch) SilhouettePerCluster(o Oracle, labels []int, k int) []float64 {
	per := s.perCluster(k)
	s.sil.silhouettes(o, labels, k, per)
	return per
}
