package cluster

import (
	"fmt"

	"repro/internal/stats"
)

// DistMatrix is a precomputed symmetric distance matrix stored in condensed
// (upper-triangle) form: n*(n-1)/2 float64 entries.
type DistMatrix struct {
	n    int
	data []float64
	// rowOff[i]+j is the position of pair (i, j), i < j, in data: row i's
	// offset in the triangle less i+1. Written once, by the constructor,
	// so that no read multiplies — n ints beside n(n-1)/2 floats.
	rowOff []int
}

// NewDistMatrix allocates a zeroed condensed upper-triangle matrix of
// n*(n-1)/2 entries (not n×n — the diagonal is implicit and the lower
// triangle mirrored). Degenerate sizes (n < 2, reachable from one-row or
// empty selections) yield a valid matrix with no stored pairs rather
// than a zero-length-slice edge case.
func NewDistMatrix(n int) *DistMatrix {
	return (*DistMatrix)(nil).reuse(max(n, 0))
}

// reuse returns a matrix over n objects on m's storage when m (which may
// be nil) has room for its cells and row offsets, and a new matrix
// otherwise. A reused matrix's cells hold whatever m's held: the caller
// writes every one.
func (m *DistMatrix) reuse(n int) *DistMatrix {
	cells := n * max(n-1, 0) / 2
	if m == nil || cap(m.data) < cells || cap(m.rowOff) < n {
		m = &DistMatrix{data: make([]float64, cells), rowOff: make([]int, n)}
	}
	m.n, m.data, m.rowOff = n, m.data[:cells], m.rowOff[:n]
	for i := range m.rowOff {
		m.rowOff[i] = i*(2*n-i-1)/2 - i - 1
	}
	return m
}

// ComputeDistMatrix fills a new matrix with pairwise distances of the
// vectors: NewOracle's matrix, with no spent storage to reuse.
func ComputeDistMatrix(vecs [][]float64, d stats.Distance) *DistMatrix {
	return computeDistMatrix(vecs, d, nil)
}

// computeDistMatrix fills the matrix scratch.reuse returns with pairwise
// distances of the vectors, one metric row call per matrix row, the rows
// dealt round-robin so that the triangle's long and short rows spread
// evenly over the workers. Rows are disjoint slices of the condensed
// storage: nothing to synchronize, the same matrix at every worker
// count, and every cell written, so reused storage needs no zeroing.
func computeDistMatrix(vecs [][]float64, d stats.Distance, scratch *DistMatrix) *DistMatrix {
	n := len(vecs)
	m := scratch.reuse(n)
	workers := rangeWorkers(n)
	parallelChunks(workers, workers, func(w, _, _ int) {
		for i := w; i < n; i += workers {
			d.DistRow(vecs[i], vecs[i+1:], m.data[m.rowOff[i]+i+1:m.rowOff[i]+n])
		}
	})
	return m
}

// idx is the position of pair (i, j), i != j, in data.
func (m *DistMatrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return m.rowOff[i] + j
}

// N implements Oracle.
func (m *DistMatrix) N() int { return m.n }

// Dist implements Oracle.
//
//blaeu:hot
func (m *DistMatrix) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.data[m.idx(i, j)]
}

// Set stores the distance between i and j (i != j).
func (m *DistMatrix) Set(i, j int, v float64) {
	if i == j {
		panic(fmt.Sprintf("cluster: Set on diagonal (%d,%d)", i, j))
	}
	m.data[m.idx(i, j)] = v
}

// RowInto implements Oracle. For j < i the condensed layout strides
// across rows (column i of each earlier row); for j > i the row is one
// contiguous block.
//
//blaeu:hot
func (m *DistMatrix) RowInto(i int, dst []float64) {
	for j, off := range m.rowOff[:i] {
		dst[j] = m.data[off+i]
	}
	dst[i] = 0
	copy(dst[i+1:], m.data[m.rowOff[i]+i+1:m.rowOff[i]+m.n])
}

// DistEvals implements Oracle: the condensed matrix holds every pair
// exactly once, all computed at construction.
func (m *DistMatrix) DistEvals() int64 {
	n := int64(m.n)
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// Subset implements Oracle: an index view over the condensed storage —
// no distance is recomputed and nothing is copied, not even idx.
func (m *DistMatrix) Subset(idx []int) Oracle {
	return newMatrixView(m, idx)
}

// matrixView is a DistMatrix restricted to a subset of its objects.
// Every answer is read from the matrix's condensed storage, so the view
// is byte-identical to a matrix freshly computed over the subset's
// vectors. Its clients are CLARA's per-sample PAM runs and the
// Monte-Carlo silhouette's rounds: a few hundred objects each, read for
// one run and dropped, where copying the cells out would cost more than
// the index indirection it saves.
type matrixView struct {
	m   *DistMatrix
	idx []int // view object -> matrix object
	// ascending: idx is strictly increasing, as every subset the pipeline
	// makes is (sorted samples, intersections of sorted row lists), so
	// RowInto knows each cell's side of the diagonal without comparing.
	ascending bool
}

func newMatrixView(m *DistMatrix, idx []int) *matrixView {
	v := &matrixView{m: m, idx: idx, ascending: true}
	for a := 1; a < len(idx) && v.ascending; a++ {
		v.ascending = idx[a-1] < idx[a]
	}
	return v
}

// N implements Oracle.
func (v *matrixView) N() int { return len(v.idx) }

// Dist implements Oracle.
//
//blaeu:hot
func (v *matrixView) Dist(i, j int) float64 {
	return v.m.Dist(v.idx[i], v.idx[j])
}

// RowInto implements Oracle. Over an ascending idx the cells left of
// the diagonal sit in column pi of their own rows and the cells right of
// it in row pi: two gathers with no test per cell. Any other idx takes
// the loop that orders each pair.
//
//blaeu:hot
func (v *matrixView) RowInto(i int, dst []float64) {
	pi, data, rowOff := v.idx[i], v.m.data, v.m.rowOff
	if !v.ascending {
		for j, pj := range v.idx {
			dst[j] = v.m.Dist(pi, pj)
		}
		return
	}
	for j, pj := range v.idx[:i] {
		dst[j] = data[rowOff[pj]+pi]
	}
	dst[i] = 0
	off, right := rowOff[pi], dst[i+1:]
	for j, pj := range v.idx[i+1:] {
		right[j] = data[off+pj]
	}
}

// Subset implements Oracle: a view of a view is a view of the matrix
// under the composed index, so nesting never adds an indirection to
// Dist.
func (v *matrixView) Subset(idx []int) Oracle {
	composed := make([]int, len(idx))
	for a, i := range idx {
		composed[a] = v.idx[i]
	}
	return newMatrixView(v.m, composed)
}

// DistEvals implements Oracle: a view reads the matrix's storage and
// never evaluates the metric.
func (v *matrixView) DistEvals() int64 { return 0 }
