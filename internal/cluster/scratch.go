package cluster

import (
	"math"
	"slices"
)

// Scratch is the storage an AutoK sweep works in, kept for the next
// sweep: the exact path's PAM run (SWAP's state, BUILD's, the row and
// block buffers), one slot per CLARA sample (its ids, its subset's
// storage, its PAM run and its assignment's rows), the Monte-Carlo
// round's ids, labels and subset storage, the silhouette kernel's
// buffers, and two label buffers, one for the k being scored and one
// for the best so far. A sweep regrows only what is too short for its n
// and k, and writes every cell it reads, so a warm scratch gives the
// bits a fresh one gives: the same calls, in the same order, with the
// same draws. What a sweep allocates is what its result keeps — the
// Clustering headers and medoids — plus CLARA's and the fan-out's
// bookkeeping.
//
// The winner's Labels and ClusterSilhouettes, and the slice
// SilhouettePerCluster returns, belong to the scratch: they stay valid
// until its next AutoK or SilhouettePerCluster. The zero value is ready
// to use. A Scratch is not safe for concurrent use; CLARA's fan-out
// writes only its own samples' slots.
type Scratch struct {
	run     pamRun
	samples [claraSamples]claraSample
	mc      mcRound
	sil     silScratch
	// kept[cur] takes the labels and per-cluster silhouettes of the k
	// being scored; a k that beats the best so far keeps its buffers,
	// and the next k takes the other pair.
	kept [2]keptBuffers
	cur  int
}

// keptBuffers are a clustering's labels and per-cluster silhouettes.
type keptBuffers struct {
	labels     []int
	perCluster []float64
}

// labels returns the current k's n-sized label buffer.
func (s *Scratch) labels(n int) []int {
	s.kept[s.cur].labels = grow(s.kept[s.cur].labels, n)
	return s.kept[s.cur].labels
}

// perCluster returns the current k's k-sized per-cluster buffer.
func (s *Scratch) perCluster(k int) []float64 {
	s.kept[s.cur].perCluster = grow(s.kept[s.cur].perCluster, k)
	return s.kept[s.cur].perCluster
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

// subsetStore is the storage of the subset one CLARA sample or one
// Monte-Carlo round reads: a matrix's index view, or a lazy oracle's
// re-sliced vectors and the matrix built over them.
type subsetStore struct {
	view   matrixView
	vecs   [][]float64
	matrix *DistMatrix
}

// subsetIn is o.Subset(idx) built in st, so that it allocates nothing
// once st is warm: a matrix's view in st.view, and a lazy oracle's small
// subset as a matrix on the storage of st.matrix, the one the last
// subset left. Other oracles make their subset as Subset does. The
// subset is read only while idx and st hold still: it is used for one
// CLARA sample or one Monte-Carlo round.
func subsetIn(st *subsetStore, o Oracle, idx []int) Oracle {
	switch p := o.(type) {
	case *DistMatrix:
		st.view.over(p, idx)
		return &st.view
	case *LazyOracle:
		st.vecs = grow(st.vecs, len(idx))
		sub := p.subsetOver(idx, st.vecs, st.matrix)
		if m, ok := sub.(*DistMatrix); ok {
			// The cells are computed: the store keeps the matrix for the
			// next subset, and none of the parent's vectors.
			st.matrix = m
			clear(st.vecs)
		}
		return sub
	}
	return o.Subset(idx)
}
