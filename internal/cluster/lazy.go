package cluster

import (
	"sync/atomic"

	"repro/internal/stats"
)

// LazyOracle computes distances on demand from the prepared vectors. It
// never allocates the O(n²) condensed matrix, which is what lets the
// mapping pipeline raise its sampling budget past the DistMatrix memory
// wall. Distances are computed by exactly the same metric calls as
// ComputeDistMatrix, so clusterings over a LazyOracle are byte-identical
// to clusterings over the materialized matrix.
//
// It is its vectors and its metric: every row is computed afresh, and
// the one other field is the atomic count of the evaluations its rows
// and the matrices filled from it cost (see DistEvals).
type LazyOracle struct {
	vecs   [][]float64
	metric stats.Distance
	evals  atomic.Int64
}

// NewLazyOracle returns a lazy oracle over the vectors.
func NewLazyOracle(vecs [][]float64, metric stats.Distance) *LazyOracle {
	return &LazyOracle{vecs: vecs, metric: metric}
}

// N implements Oracle.
func (o *LazyOracle) N() int { return len(o.vecs) }

// RowInto implements Oracle: len(vecs)-1 evaluations in two row calls,
// the diagonal set to 0, not evaluated, and the evaluations added to
// the count.
//
//blaeu:hot
func (o *LazyOracle) RowInto(i int, dst []float64) {
	o.metric.DistRow(o.vecs[i], o.vecs[:i], dst[:i])
	dst[i] = 0
	o.metric.DistRow(o.vecs[i], o.vecs[i+1:], dst[i+1:])
	o.evals.Add(int64(len(o.vecs) - 1))
}

// fillSubset implements Oracle: the matrix over the re-sliced vectors
// (slice headers are shared; no vector data is copied), made by this
// oracle's metric calls on the same float slices, so it answers with
// the same bits. Its cells are computed on this oracle's behalf and
// added to its count.
func (o *LazyOracle) fillSubset(idx []int, st *subsetStore) {
	st.vecs = grow(st.vecs, len(idx))
	for a, i := range idx {
		st.vecs[a] = o.vecs[i]
	}
	st.matrix = st.matrix.reuse(len(idx))
	st.matrix.fillRows(st.vecs, o.metric, 0, 1)
	clear(st.vecs) // keep none of the oracle's vectors
	o.evals.Add(st.matrix.DistEvals())
}

// DistEvals implements Oracle: the evaluations of every row RowInto
// computed and the cells of every matrix filled from the oracle.
func (o *LazyOracle) DistEvals() int64 { return o.evals.Load() }
