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

	// parent and idx are set on a subset: vecs[a] is parent.vecs[idx[a]],
	// and rows the parent has memoized are gathered through idx instead
	// of recomputed.
	parent *LazyOracle
	idx    []int

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
// materialized are copied out of the cache (a subset gathers them out of
// its parent's when its own misses); fresh rows are computed outside the
// lock (so concurrent misses on different rows proceed in parallel) and
// stored while the cache has room.
//
//blaeu:hot
func (o *LazyOracle) RowInto(i int, dst []float64) {
	//blaeu:nolint hotpath one memo lookup (a lock and a map read) amortized over the O(n) row
	if o.memoized(i, dst) {
		return
	}
	computed := int64(0)
	//blaeu:nolint hotpath one parent-memo lookup amortized over the O(n) row
	if prow := o.parentRow(i); prow != nil {
		for j, pj := range o.idx {
			dst[j] = prow[pj]
		}
	} else {
		metricRow(o.metric, o.vecs, i, dst)
		computed = int64(len(o.vecs) - 1)
	}
	//blaeu:nolint hotpath one memo store (a lock, at most one row copy) amortized over the O(n) row
	o.memoize(i, dst, computed)
}

// metricRow fills dst with object i's exact distances to all of vecs —
// len(vecs)-1 evaluations in two row calls, the diagonal set to 0, not
// evaluated.
//
//blaeu:hot
func metricRow(metric stats.Distance, vecs [][]float64, i int, dst []float64) {
	metric.DistRow(vecs[i], vecs[:i], dst[:i])
	dst[i] = 0
	metric.DistRow(vecs[i], vecs[i+1:], dst[i+1:])
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

// parentRow returns the parent's memoized row for subset object i, or
// nil (always nil on an oracle that is not a subset). Memoized rows are
// immutable once stored, so the caller reads the slice without the lock.
func (o *LazyOracle) parentRow(i int) []float64 {
	p := o.parent
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rows[o.idx[i]]
}

// memoize books the evaluations a fresh row cost and keeps a copy of the
// row while the memo has room.
func (o *LazyOracle) memoize(i int, row []float64, computed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.evals += computed
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

// Subset implements Oracle: the subset is a LazyOracle over the
// re-sliced vectors (slice headers are shared; no vector data is copied)
// that reads through this oracle's row memo, so distance work a build
// already paid for is never recomputed. Answers are byte-identical to a
// fresh LazyOracle over the subset's vectors: both make the same metric
// calls on the same float slices. The subset keeps its own bounded memo
// of subset-sized rows.
func (o *LazyOracle) Subset(idx []int) Oracle {
	vecs := make([][]float64, len(idx))
	for a, i := range idx {
		vecs[a] = o.vecs[i]
	}
	return &LazyOracle{vecs: vecs, metric: o.metric, parent: o, idx: idx}
}

// DistEvals implements Oracle: metric evaluations performed by RowInto
// materializations (whether or not the row was retained by the bounded
// memo). Rows a subset gathers out of its parent's memo are reuse, not
// evaluation, and direct Dist calls compute lock-free and are not
// individually counted.
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
