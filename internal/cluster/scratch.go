package cluster

import (
	"math"
	"slices"

	"repro/internal/cores"
)

// Scratch is the storage an AutoK sweep works in, kept for the next
// sweep, and the owner of every matrix the sweep reads: the exact path's
// matrix (Oracle's) and its PAM run (SWAP's state, BUILD's, the row and
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
	matrix  *DistMatrix
	run     pamRun
	samples [claraSamples]claraSample
	// claraTask is the per-sample fan-out's task state (see clara).
	claraTask claraTask
	rounds    [mcRounds]mcRound
	sil       silScratch
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

// pam is PAM over m in the scratch's run, its labels copied into the
// current k's buffer.
func (s *Scratch) pam(m *DistMatrix, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(m, k); c != nil || err != nil {
		return c, err
	}
	if err := s.run.pam(m, k); err != nil {
		return nil, err
	}
	return s.result(k), nil
}

// exact is o as the matrix exact PAM reads: a matrix itself, or a lazy
// oracle's vectors filled into the scratch's own matrix (Oracle's), as
// AutoK below LargeThreshold and CLARA on at most one sample's objects
// need when they are handed vectors.
func (s *Scratch) exact(o Oracle) *DistMatrix {
	if l, ok := o.(*LazyOracle); ok {
		s.matrix = computeDistMatrix(l.vecs, l.metric, s.matrix)
		l.evals.Add(s.matrix.DistEvals())
		return s.matrix
	}
	return o.(*DistMatrix)
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
// Monte-Carlo round reads: the matrix, and a lazy oracle's re-sliced
// vectors it is computed from. The oracle fills it (Oracle.fillSubset)
// on the storage the last matrix left, so a fill allocates nothing once
// the store is warm.
type subsetStore struct {
	vecs   [][]float64
	matrix *DistMatrix
}

// fill fills the matrices of the first samples CLARA samples and the
// first rounds Monte-Carlo rounds, over the ids drawSamples and
// drawRounds drew, from o: every one a task of one fan-out, each filled
// inline on its task's goroutine, the rounds — the larger — first. Each
// matrix is its task's alone, and a fill is the same at any worker
// count, so the matrices are those a sequential fill gives.
func (s *Scratch) fill(o Oracle, samples, rounds int) {
	cores.Run(rounds+samples, func(i int) {
		if i < rounds {
			o.fillSubset(s.rounds[i].ids, &s.rounds[i].sub)
			return
		}
		sm := &s.samples[i-rounds]
		o.fillSubset(sm.ids, &sm.sub)
	})
}
