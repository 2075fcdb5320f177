package cluster

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// DistMatrix is a precomputed symmetric distance matrix stored in condensed
// (upper-triangle) form: n*(n-1)/2 float64 entries.
type DistMatrix struct {
	n    int
	data []float64
}

// NewDistMatrix allocates a zeroed condensed upper-triangle matrix of
// n*(n-1)/2 entries (not n×n — the diagonal is implicit and the lower
// triangle mirrored). Degenerate sizes (n < 2, reachable from one-row or
// empty selections) yield a valid matrix with no stored pairs rather
// than a zero-length-slice edge case.
func NewDistMatrix(n int) *DistMatrix {
	if n < 2 {
		if n < 0 {
			n = 0
		}
		return &DistMatrix{n: n, data: []float64{}}
	}
	return &DistMatrix{n: n, data: make([]float64, n*(n-1)/2)}
}

// ComputeDistMatrix fills a matrix with pairwise distances of the
// vectors, spreading rows across CPUs (rows touch disjoint slices of the
// condensed storage, so no synchronization is needed).
func ComputeDistMatrix(vecs [][]float64, d stats.Distance) *DistMatrix {
	n := len(vecs)
	m := NewDistMatrix(n)
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 128 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, d.Dist(vecs[i], vecs[j]))
			}
		}
		return m
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, d.Dist(vecs[i], vecs[j]))
				}
			}
		}()
	}
	wg.Wait()
	return m
}

func (m *DistMatrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the condensed upper triangle.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
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
// across rows (the offset advances by n-j-2, a stride that shrinks as j
// grows); for j > i the row is one contiguous block.
//
//blaeu:hot
func (m *DistMatrix) RowInto(i int, dst []float64) {
	off := i - 1 // idx(0, i)
	for j := 0; j < i; j++ {
		dst[j] = m.data[off]
		off += m.n - j - 2
	}
	if i < m.n {
		dst[i] = 0
	}
	if i+1 < m.n {
		base := m.idx(i, i+1)
		copy(dst[i+1:], m.data[base:base+m.n-i-1])
	}
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
	return &matrixView{m: m, idx: idx}
}

// matrixView is a DistMatrix restricted to a subset of its objects.
// Every answer is read from the matrix's condensed storage, so the view
// is byte-identical to a matrix freshly computed over the subset's
// vectors.
type matrixView struct {
	m   *DistMatrix
	idx []int // view object -> matrix object
}

// N implements Oracle.
func (v *matrixView) N() int { return len(v.idx) }

// Dist implements Oracle.
//
//blaeu:hot
func (v *matrixView) Dist(i, j int) float64 {
	return v.m.Dist(v.idx[i], v.idx[j])
}

// RowInto implements Oracle.
//
//blaeu:hot
func (v *matrixView) RowInto(i int, dst []float64) {
	pi := v.idx[i]
	for j, pj := range v.idx {
		dst[j] = v.m.Dist(pi, pj)
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
	return &matrixView{m: v.m, idx: composed}
}

// DistEvals implements Oracle: a view reads the matrix's storage and
// never evaluates the metric.
func (v *matrixView) DistEvals() int64 { return 0 }
