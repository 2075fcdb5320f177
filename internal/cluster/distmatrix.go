package cluster

import (
	"fmt"

	"repro/internal/cores"
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
// vectors: Scratch.Oracle's matrix, on storage of its own.
func ComputeDistMatrix(vecs [][]float64, d stats.Distance) *DistMatrix {
	return computeDistMatrix(vecs, d, nil)
}

// computeDistMatrix fills the matrix scratch.reuse returns with pairwise
// distances of the vectors, its rows dealt round-robin so that the
// triangle's long and short rows spread evenly over the workers, one
// task each through cores.Run; one worker fills them inline. Rows are
// disjoint slices of the condensed storage: nothing to synchronize, the
// same matrix at every worker count, and every cell written, so reused
// storage needs no zeroing.
func computeDistMatrix(vecs [][]float64, d stats.Distance, scratch *DistMatrix) *DistMatrix {
	m := scratch.reuse(len(vecs))
	if workers := rangeWorkers(m.n); workers > 1 {
		cores.Run(workers, func(w int) { m.fillRows(vecs, d, w, workers) })
	} else {
		m.fillRows(vecs, d, 0, 1)
	}
	return m
}

// fillRows writes rows w, w+workers, w+2·workers, … of m with the
// distances among vecs, one metric row call per matrix row.
func (m *DistMatrix) fillRows(vecs [][]float64, d stats.Distance, w, workers int) {
	for i := w; i < m.n; i += workers {
		d.DistRow(vecs[i], vecs[i+1:], m.data[m.rowOff[i]+i+1:m.rowOff[i]+m.n])
	}
}

// lead writes into v, and returns, m's leading principal block over its
// first n objects: the same cells read through the same row offsets, so
// every row v serves is the one a matrix computed over those n objects
// alone would serve. It is how the ks of a CLARA sweep share one matrix
// per sample. v reads m's storage and is valid while m is.
func (m *DistMatrix) lead(n int, v *DistMatrix) *DistMatrix {
	*v = DistMatrix{n: n, data: m.data, rowOff: m.rowOff[:n]}
	return v
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

// Dist returns the distance between i and j, for callers that hold the
// matrix itself: one cell, where an Oracle serves rows.
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
// exactly once, all computed at construction. A matrix filled from
// another matrix's cells counts them too; no build's count reads one.
func (m *DistMatrix) DistEvals() int64 {
	n := int64(m.n)
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// fillSubset implements Oracle: the cells among idx copied out of this
// matrix — no distance is recomputed.
func (m *DistMatrix) fillSubset(idx []int, st *subsetStore) {
	sub := st.matrix.reuse(len(idx))
	for a, pa := range idx {
		row := sub.data[sub.rowOff[a]+a+1 : sub.rowOff[a]+sub.n]
		for b, pb := range idx[a+1:] {
			row[b] = m.Dist(pa, pb)
		}
	}
	st.matrix = sub
}
