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
// and its subset matrices cost (see DistEvals).
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

// Subset implements Oracle: a matrix over the re-sliced vectors (slice
// headers are shared; no vector data is copied), made by this oracle's
// metric calls on the same float slices, so it answers with the same
// bits. Its cells are computed on this oracle's behalf and added to its
// count.
func (o *LazyOracle) Subset(idx []int) Oracle {
	return o.subsetOver(idx, make([][]float64, len(idx)), nil)
}

// subsetOver is Subset with the re-sliced vectors written into vecs,
// len(idx) long, and the matrix built on the storage of scratch, which
// may be nil (see NewOracle).
func (o *LazyOracle) subsetOver(idx []int, vecs [][]float64, scratch *DistMatrix) *DistMatrix {
	for a, i := range idx {
		vecs[a] = o.vecs[i]
	}
	sub := computeDistMatrix(vecs, o.metric, scratch)
	o.evals.Add(sub.DistEvals())
	return sub
}

// DistEvals implements Oracle: the evaluations of every row RowInto
// computed and the cells of every subset matrix Subset built.
func (o *LazyOracle) DistEvals() int64 { return o.evals.Load() }
