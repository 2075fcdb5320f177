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
func (sc *silScratch) silhouettes(o Oracle, labels []int, k int, perCluster []float64) float64 {
	clear(perCluster)
	sc.cnt = grow(sc.cnt, k)
	clear(sc.cnt)
	avg := sc.accumulate(o, labels, k, perCluster, sc.cnt)
	for c, m := range sc.cnt {
		if m > 0 {
			perCluster[c] /= float64(m)
		}
	}
	return avg
}

// accumulate is the kernel's pass over o: it adds each validly labelled
// object's s(i) to its cluster's sum in perSum, counts the measured ones
// in cnt (both k-sized, not cleared, so that rounds can add up; see
// silhouetteKernel), and returns the average width over every validly
// labelled object.
func (sc *silScratch) accumulate(o Oracle, labels []int, k int, perSum []float64, cnt []int) float64 {
	if o.N() == 0 || k < 2 {
		return 0
	}
	sc.sizes = sizesInto(sc.sizes, labels, k)
	sc.row = grow(sc.row, o.N())
	sc.sums = grow(sc.sums, k)
	total, counted := silhouetteKernel(o, labels, sc.sizes, sc.row, sc.sums, perSum, cnt)
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// sizesInto counts the validly labelled objects of each of k clusters
// into buf's storage.
func sizesInto(buf, labels []int, k int) []int {
	sizes := grow(buf, k)
	clear(sizes)
	for _, l := range labels {
		if l >= 0 && l < k {
			sizes[l]++
		}
	}
	return sizes
}

// silhouetteKernel computes s(i) for every validly labelled object and
// adds it both to the returned total (in object order) and to its
// cluster's sum in perCluster; it returns the total and the number of
// objects it added. cnt counts, per cluster, only the objects whose
// width was measured: a lone member's s = 0 is a convention, and in a
// Monte-Carlo round, where a cluster is alone only because the draw
// took one of its members, it would pull the cluster's mean toward 0.
// (A true singleton's mean is 0 either way.) All buffers are the
// caller's: sums is the k-sized per-object scratch; row, n-sized, takes
// each object's distances.
//
//blaeu:hot
func silhouetteKernel(o Oracle, labels, sizes []int, row, sums, perCluster []float64, cnt []int) (total float64, counted int) {
	k := len(sums)
	for i := range o.N() {
		li := labels[i]
		if li < 0 || li >= k {
			continue
		}
		if sizes[li] > 1 {
			cnt[li]++
		}
		counted++
		s := silhouetteOf(o, i, labels, sizes, row, sums)
		total += s
		perCluster[li] += s
	}
	return total, counted
}

// silhouetteOf is s(i) for the validly labelled object i: 0 in a
// singleton cluster or with no other cluster to compare against, by
// Kaufman & Rousseeuw's convention. It reads i's row into row (n-sized)
// and sums distances per cluster in sums (k-sized).
//
//blaeu:hot
func silhouetteOf(o Oracle, i int, labels, sizes []int, row, sums []float64) float64 {
	li, k := labels[i], len(sums)
	if sizes[li] <= 1 {
		return 0
	}
	clear(sums)
	o.RowInto(i, row)
	for j, lj := range labels[:len(row)] {
		if j == i || lj < 0 || lj >= k {
			continue
		}
		sums[lj] += row[j]
	}
	a := sums[li] / float64(sizes[li]-1)
	b := math.Inf(1)
	for c := range k {
		if c == li || sizes[c] == 0 {
			continue
		}
		if v := sums[c] / float64(sizes[c]); v < b {
			b = v
		}
	}
	if den := math.Max(a, b); !math.IsInf(b, 1) && den > 0 {
		return (b - a) / den
	}
	return 0
}

// The Monte-Carlo silhouette averages mcRounds sub-samples of
// mcSampleSize objects each. A cluster with fewer than mcMinMembers
// measured widths in all the rounds together — members that share their
// round with another of the cluster's — takes its exact mean instead of
// theirs.
const (
	mcRounds     = 4
	mcSampleSize = 256
	mcMinMembers = 8
)

// MCSilhouette estimates the average silhouette width by averaging the
// exact silhouette of several random sub-samples, the Monte-Carlo scheme
// the paper describes (§3, "Sampling"): "it extracts a few sub-samples
// from the user's selection, computes the clustering quality of those, and
// averages the results". It reduces the O(n²) exact cost to
// O(rounds · s²) for sample size s, and is exact when n is at most s. rng
// is the randomness source (required).
func MCSilhouette(o Oracle, labels []int, k int, rng *rand.Rand) float64 {
	if rng == nil {
		panic("cluster: MCSilhouette requires a random source")
	}
	s := new(Scratch)
	per, counts := s.perCluster(k)
	if o.N() <= mcSampleSize {
		return s.sil.silhouettes(o, labels, k, per)
	}
	s.drawRounds(o.N(), rng)
	s.fill(o, 0, mcRounds)
	return s.mcScore(labels, k, per, counts)
}

// mcRound is one Monte-Carlo silhouette round's slot in a Scratch: the
// sample's ids and the bitmap they were drawn through, their labels
// under the k being scored and the storage of their matrix.
type mcRound struct {
	ids    []int
	taken  []uint64
	labels []int
	sub    subsetStore
}

// drawRounds draws the Monte-Carlo rounds' ids from rng, in round
// order, each a uniform sample of mcSampleSize of n > mcSampleSize
// objects, ascending; fill fills their matrices, once per sweep, for
// every k they score.
func (s *Scratch) drawRounds(n int, rng *rand.Rand) {
	for r := range s.rounds {
		m := &s.rounds[r]
		m.ids, m.taken = store.SampleIndicesInto(n, mcSampleSize, rng, m.ids, m.taken)
	}
}

// mcScore is the Monte-Carlo silhouette of labels on the rounds
// drawRounds drew: the mean of each round's average width. Along the
// way it sums each cluster's widths over every round into perSum and
// counts its measured ones there in cnt (both k-sized; see roundMeans).
func (s *Scratch) mcScore(labels []int, k int, perSum []float64, cnt []int) float64 {
	clear(perSum)
	clear(cnt)
	total := 0.0
	for r := range s.rounds {
		m := &s.rounds[r]
		m.labels = grow(m.labels, len(m.ids))
		for i, gi := range m.ids {
			m.labels[i] = labels[gi]
		}
		total += s.sil.accumulate(m.sub.matrix, m.labels, k, perSum, cnt)
	}
	return total / mcRounds
}

// roundMeans turns the per-cluster sums and counts mcScore left into
// each cluster's mean silhouette width, in place: the rounds' mean for a
// cluster they measured at least mcMinMembers times, and the exact mean
// over the cluster's own objects of o — |c| rows, O(|c|·n) — for one
// they measured fewer times. A cluster that rare in the rounds is small,
// so the exact means cost little against the sweep.
func (s *Scratch) roundMeans(o Oracle, labels []int, perSum []float64, cnt []int) {
	k := len(perSum)
	for c, m := range cnt {
		if m >= mcMinMembers {
			perSum[c] /= float64(m)
			continue
		}
		perSum[c] = s.sil.clusterMean(o, labels, k, c)
	}
}

// clusterMean is cluster c's exact mean silhouette width over o: the
// mean of s(i) over its members, each read from its own row, and 0 for
// an empty cluster.
func (sc *silScratch) clusterMean(o Oracle, labels []int, k, c int) float64 {
	sc.sizes = sizesInto(sc.sizes, labels, k)
	if sc.sizes[c] == 0 {
		return 0
	}
	sc.row = grow(sc.row, o.N())
	sc.sums = grow(sc.sums, k)
	sum := 0.0
	for i, l := range labels[:o.N()] {
		if l == c {
			sum += silhouetteOf(o, i, labels, sc.sizes, sc.row, sc.sums)
		}
	}
	return sum / float64(sc.sizes[c])
}

// SilhouettePerCluster returns the mean silhouette width of each cluster,
// the per-region quality signal Blaeu surfaces to users, by the exact
// O(n²) pass. AutoK's winner carries these means already
// (ClusterSilhouettes), exact or from its Monte-Carlo rounds.
func SilhouettePerCluster(o Oracle, labels []int, k int) []float64 {
	per := make([]float64, k)
	var sc silScratch
	sc.silhouettes(o, labels, k, per)
	return per
}
