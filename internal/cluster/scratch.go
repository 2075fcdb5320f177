package cluster

import (
	"math"
	"slices"
)

// Scratch is the storage an AutoK sweep works in, kept for the next
// sweep: the exact path's PAM run (SWAP's state, BUILD's, the row and
// block buffers), one slot per CLARA sample (its ids, its matrix, its
// PAM run and its assignment's rows), one per Monte-Carlo round (its
// ids, labels and matrix), the silhouette kernel's buffers, and two
// sets of kept buffers, one for the k being scored and one for the best
// so far. A sweep regrows only what is too short for its n and k, and
// writes every cell it reads, so a warm scratch gives the bits a fresh
// one gives: the same calls, in the same order, with the same draws.
// What a sweep allocates is what its result keeps — the Clustering
// headers and medoids — plus the fan-out's bookkeeping.
//
// The winner's Labels and ClusterSilhouettes belong to the scratch: they
// stay valid until its next AutoK. The zero value is ready to use. A
// Scratch is not safe for concurrent use; CLARA's fan-out writes only
// its own samples' slots.
type Scratch struct {
	run     pamRun
	samples [claraSamples]claraSample
	rounds  [mcRounds]mcRound
	sil     silScratch
	// kept[cur] takes the labels, per-cluster silhouettes and
	// per-cluster round counts of the k being scored; a k that beats the
	// best so far keeps its buffers, and the next k takes the other set.
	kept [2]keptBuffers
	cur  int
}

// keptBuffers are a clustering's labels and per-cluster silhouettes,
// and, on a Monte-Carlo score, how many of each cluster's widths the
// rounds measured.
type keptBuffers struct {
	labels     []int
	perCluster []float64
	counts     []int
}

// labels returns the current k's n-sized label buffer.
func (s *Scratch) labels(n int) []int {
	s.kept[s.cur].labels = grow(s.kept[s.cur].labels, n)
	return s.kept[s.cur].labels
}

// perCluster returns the current k's k-sized per-cluster buffers: the
// silhouettes and the round counts.
func (s *Scratch) perCluster(k int) ([]float64, []int) {
	b := &s.kept[s.cur]
	b.perCluster, b.counts = grow(b.perCluster, k), grow(b.counts, k)
	return b.perCluster, b.counts
}

// pam is PAM in the scratch's run, its labels copied into the current
// k's buffer.
func (s *Scratch) pam(o Oracle, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(o, k); c != nil || err != nil {
		return c, err
	}
	if err := s.run.pam(o, k); err != nil {
		return nil, err
	}
	return s.result(k), nil
}

// result is the scratch run's clustering into k clusters: its labels
// copied into the current k's buffer, its medoids into a slice of the
// clustering's own.
func (s *Scratch) result(k int) *Clustering {
	labels := s.labels(len(s.run.n1))
	copy(labels, s.run.n1)
	return &Clustering{K: k, Labels: labels, Medoids: slices.Clone(s.run.medoids), Cost: s.run.cost, Silhouette: math.NaN()}
}

// subsetStore is the storage of the matrix one CLARA sample or one
// Monte-Carlo round reads: the matrix, and a lazy parent's re-sliced
// vectors it is computed from.
type subsetStore struct {
	vecs   [][]float64
	matrix *DistMatrix
}

// over fills st's matrix with o's distances among the objects idx, in
// idx's order, and returns it: computed from a lazy oracle's vectors
// (its cells added to the oracle's count), copied out of a matrix's
// cells, or read from o.Subset's rows on any other oracle. The matrix is
// built on the storage the last one left, so over allocates nothing
// once st is warm on a lazy oracle or a matrix.
func (st *subsetStore) over(o Oracle, idx []int) *DistMatrix {
	switch p := o.(type) {
	case *LazyOracle:
		st.vecs = grow(st.vecs, len(idx))
		st.matrix = p.subsetOver(idx, st.vecs, st.matrix)
		clear(st.vecs) // keep none of the parent's vectors
		return st.matrix
	case *DistMatrix:
		m := st.matrix.reuse(len(idx))
		for a, pa := range idx {
			row := m.data[m.rowOff[a]+a+1 : m.rowOff[a]+m.n]
			for b, pb := range idx[a+1:] {
				row[b] = p.Dist(pa, pb)
			}
		}
		st.matrix = m
		return m
	}
	sub := o.Subset(idx)
	m := st.matrix.reuse(len(idx))
	buf := make([]float64, len(idx))
	for a := range idx {
		sub.RowInto(a, buf)
		copy(m.data[m.rowOff[a]+a+1:m.rowOff[a]+m.n], buf[a+1:])
	}
	st.matrix = m
	return m
}
