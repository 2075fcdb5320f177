package cluster

import (
	"sync"

	"repro/internal/stats"
)

// lazyCacheRows bounds LazyOracle's row memo. Each cached row costs 8·n
// bytes, so the memo tops out at 128·8·n — linear in n, versus the
// 4·n² bytes of the condensed matrix it replaces.
const lazyCacheRows = 128

// LazyOracle computes distances on demand from the prepared vectors,
// memoizing whole rows materialized through RowInto in a bounded cache.
// It never allocates the O(n²) condensed matrix, which is what lets the
// mapping pipeline raise its sampling budget past the DistMatrix memory
// wall. Distances are computed by exactly the same metric calls as
// ComputeDistMatrix, so clusterings over a LazyOracle are byte-identical
// to clusterings over the materialized matrix.
//
// Dist is lock-free (it always computes directly); RowInto takes one
// mutex acquisition per call, amortized over the O(n) row it returns.
// The memo is allocated by the first row stored, so an oracle only ever
// asked for pairs — CLARA's full-data assignment pass, a Monte-Carlo
// silhouette sample — is the vectors and the metric, nothing more.
type LazyOracle struct {
	vecs   [][]float64
	metric stats.Distance

	mu   sync.Mutex
	rows map[int][]float64
	// evals counts metric evaluations made by RowInto materializations
	// (guarded by mu; see Oracle.DistEvals for why Dist is not counted).
	evals int64
}

// NewLazyOracle returns a lazy oracle over the vectors.
func NewLazyOracle(vecs [][]float64, metric stats.Distance) *LazyOracle {
	return &LazyOracle{vecs: vecs, metric: metric}
}

// N implements Oracle.
func (o *LazyOracle) N() int { return len(o.vecs) }

// Dist implements Oracle. It computes the metric directly — no cache
// lookup, so the hot O(k)-scan paths of PAM never contend on the memo.
//
//blaeu:hot
func (o *LazyOracle) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return o.metric.Dist(o.vecs[i], o.vecs[j])
}

// RowInto implements Oracle with a bounded per-row memo: rows already
// materialized are copied out of the cache; fresh rows are computed
// outside the lock (so concurrent misses on different rows proceed in
// parallel) — len(vecs)-1 evaluations in two row calls, the diagonal set
// to 0, not evaluated — and stored while the cache has room.
//
//blaeu:hot
func (o *LazyOracle) RowInto(i int, dst []float64) {
	//blaeu:nolint hotpath one memo lookup (a lock and a map read) amortized over the O(n) row
	if o.memoized(i, dst) {
		return
	}
	o.metric.DistRow(o.vecs[i], o.vecs[:i], dst[:i])
	dst[i] = 0
	o.metric.DistRow(o.vecs[i], o.vecs[i+1:], dst[i+1:])
	//blaeu:nolint hotpath one memo store (a lock, at most one row copy) amortized over the O(n) row
	o.memoize(i, dst)
}

// memoized copies row i out of the memo, reporting whether it was there.
func (o *LazyOracle) memoized(i int, dst []float64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	row, ok := o.rows[i]
	if ok {
		copy(dst, row)
	}
	return ok
}

// memoize books the evaluations a fresh row cost and keeps a copy of the
// row while the memo has room.
func (o *LazyOracle) memoize(i int, row []float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.evals += int64(len(o.vecs) - 1)
	if len(o.rows) >= lazyCacheRows {
		return
	}
	if o.rows == nil {
		o.rows = make(map[int][]float64)
	}
	if _, ok := o.rows[i]; !ok {
		o.rows[i] = append([]float64(nil), row...)
	}
}

// Subset implements Oracle: a LazyOracle over the re-sliced vectors
// (slice headers are shared; no vector data is copied) with a bounded
// memo of its own. It makes this oracle's metric calls on the same float
// slices, so it answers with the same bits. It does not read this
// oracle's memo: the pipeline takes subsets (CLARA's samples, the
// Monte-Carlo silhouette's rounds) of lazy oracles it reads by pairs,
// whose memo is empty.
func (o *LazyOracle) Subset(idx []int) Oracle {
	vecs := make([][]float64, len(idx))
	for a, i := range idx {
		vecs[a] = o.vecs[i]
	}
	return NewLazyOracle(vecs, o.metric)
}

// DistEvals implements Oracle: metric evaluations performed by RowInto
// materializations (whether or not the row was retained by the bounded
// memo). Direct Dist calls compute lock-free and are not individually
// counted.
func (o *LazyOracle) DistEvals() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.evals
}

// cachedRows reports how many rows the memo currently holds (tests).
func (o *LazyOracle) cachedRows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.rows)
}
