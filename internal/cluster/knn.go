package cluster

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// KNNOracleOptions tunes the k-NN graph construction.
type KNNOracleOptions struct {
	// K is the number of nearest neighbors stored per object before
	// symmetrization (default: n/8 clamped to [32, 512]).
	K int
	// Pivots is the number of reference points used for the far-pair
	// upper bound (default 16). Pivots are evenly spaced over the input
	// order, so the oracle is deterministic.
	Pivots int
}

func (o *KNNOracleOptions) defaults(n int) {
	if o.K <= 0 {
		o.K = n / 8
		if o.K < 32 {
			o.K = 32
		}
		if o.K > 512 {
			o.K = 512
		}
	}
	if o.K >= n {
		o.K = n - 1
	}
	if o.Pivots <= 0 {
		o.Pivots = 16
	}
	if o.Pivots > n {
		o.Pivots = n
	}
}

// KNNOracle answers distance queries from a k-nearest-neighbor graph:
// pairs inside a neighborhood (i among j's k nearest or vice versa) get
// their exact distance; far pairs get an upper-bound estimate routed
// through the best of a small set of pivot points (d(i,j) ≤ min_p
// d(i,p)+d(p,j), by the triangle inequality). The graph is built exactly
// by a parallel brute-force pass — O(n²) time but only O(n·(K+Pivots))
// memory — which unlocks PAM and silhouettes past the DistMatrix memory
// wall at a small, bounded cost inflation (see the golden tests).
//
// Caveat: the pivot bound inflates far *within-cluster* distances, so
// silhouette-driven model selection over this oracle is biased (by about
// ±1 cluster in practice) when true clusters dwarf the neighborhood
// size K. PAM at a fixed k is robust to this — candidate medoids suffer
// the same inflation and the argmin survives — but for AutoK prefer the
// lazy oracle, or size K on the order of the expected cluster size.
type KNNOracle struct {
	vecs   [][]float64
	metric stats.Distance
	// adjIdx[i] lists i's neighbors sorted by object id (symmetrized:
	// j appears in adjIdx[i] iff i appears in adjIdx[j]); adjDist holds
	// the matching exact distances.
	adjIdx  [][]int32
	adjDist [][]float64
	// pivotD[p][j] is the exact distance from pivot p to object j.
	pivotD [][]float64
	// evals is the metric-evaluation count of the graph build, fixed at
	// construction (0 for derived oracles — induction copies storage).
	evals int64
}

// NewKNNOracle builds the k-NN graph oracle over the vectors. The build
// is exact (brute force) and spread across CPUs.
func NewKNNOracle(vecs [][]float64, metric stats.Distance, opts KNNOracleOptions) *KNNOracle {
	n := len(vecs)
	opts.defaults(n)
	o := &KNNOracle{vecs: vecs, metric: metric}
	if n < 2 {
		o.adjIdx = make([][]int32, n)
		o.adjDist = make([][]float64, n)
		return o
	}
	k := opts.K

	// Pivot rows: evenly spaced objects, exact distances to everything.
	o.pivotD = make([][]float64, opts.Pivots)
	for p := range o.pivotD {
		o.pivotD[p] = make([]float64, n)
	}
	parallelRange(opts.Pivots, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			metricRow(metric, vecs, p*n/opts.Pivots, o.pivotD[p])
		}
	})

	// Exact k-NN lists: per object, a brute-force pass keeping the K
	// nearest via a bounded max-heap.
	knnIdx := make([][]int32, n)
	knnDist := make([][]float64, n)
	parallelRange(n, func(lo, hi int) {
		heapIdx := make([]int32, k)
		heapDist := make([]float64, k)
		row := make([]float64, n)
		for i := lo; i < hi; i++ {
			size := 0
			metricRow(metric, vecs, i, row)
			for j, d := range row {
				if j == i {
					continue
				}
				if size < k {
					heapPush(heapIdx, heapDist, size, int32(j), d)
					size++
				} else if d < heapDist[0] {
					heapReplace(heapIdx, heapDist, size, int32(j), d)
				}
			}
			knnIdx[i] = append([]int32(nil), heapIdx[:size]...)
			knnDist[i] = append([]float64(nil), heapDist[:size]...)
			sortByID(knnIdx[i], knnDist[i])
		}
	})

	// Symmetrize: j ∈ knn(i) must also make i a neighbor of j, so Dist
	// answers exactly whenever either side considers the other near.
	extraIdx := make([][]int32, n)
	extraDist := make([][]float64, n)
	for i := 0; i < n; i++ {
		for t, j := range knnIdx[i] {
			if !containsID(knnIdx[j], int32(i)) {
				extraIdx[j] = append(extraIdx[j], int32(i))
				extraDist[j] = append(extraDist[j], knnDist[i][t])
			}
		}
	}
	o.adjIdx = make([][]int32, n)
	o.adjDist = make([][]float64, n)
	for i := 0; i < n; i++ {
		if len(extraIdx[i]) == 0 {
			o.adjIdx[i] = knnIdx[i]
			o.adjDist[i] = knnDist[i]
			continue
		}
		idx := append(knnIdx[i], extraIdx[i]...)
		dist := append(knnDist[i], extraDist[i]...)
		sortByID(idx, dist)
		o.adjIdx[i] = idx
		o.adjDist[i] = dist
	}
	// Pivot rows evaluate n-1 pairs each; the k-NN pass evaluates every
	// ordered pair once.
	o.evals = int64(opts.Pivots)*int64(n-1) + int64(n)*int64(n-1)
	return o
}

// heapPush inserts into a max-heap of (id, dist) pairs keyed on dist.
func heapPush(idx []int32, dist []float64, size int, id int32, d float64) {
	idx[size], dist[size] = id, d
	for c := size; c > 0; {
		p := (c - 1) / 2
		if dist[p] >= dist[c] {
			break
		}
		idx[p], idx[c] = idx[c], idx[p]
		dist[p], dist[c] = dist[c], dist[p]
		c = p
	}
}

// heapReplace swaps the root (current maximum) for a smaller element.
func heapReplace(idx []int32, dist []float64, size int, id int32, d float64) {
	idx[0], dist[0] = id, d
	for c := 0; ; {
		l, r := 2*c+1, 2*c+2
		big := c
		if l < size && dist[l] > dist[big] {
			big = l
		}
		if r < size && dist[r] > dist[big] {
			big = r
		}
		if big == c {
			break
		}
		idx[big], idx[c] = idx[c], idx[big]
		dist[big], dist[c] = dist[c], dist[big]
		c = big
	}
}

func sortByID(idx []int32, dist []float64) {
	sort.Sort(&idDistPairs{idx, dist})
}

type idDistPairs struct {
	idx  []int32
	dist []float64
}

func (p *idDistPairs) Len() int           { return len(p.idx) }
func (p *idDistPairs) Less(i, j int) bool { return p.idx[i] < p.idx[j] }
func (p *idDistPairs) Swap(i, j int) {
	p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
	p.dist[i], p.dist[j] = p.dist[j], p.dist[i]
}

func containsID(ids []int32, id int32) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// N implements Oracle.
func (o *KNNOracle) N() int { return len(o.vecs) }

// Dist implements Oracle: exact inside the symmetrized neighborhood,
// pivot-routed upper bound outside it.
//
//blaeu:hot
func (o *KNNOracle) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	ids := o.adjIdx[i]
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == int32(j) {
		return o.adjDist[i][lo]
	}
	return o.estimate(i, j)
}

// estimate upper-bounds d(i,j) by routing through the best pivot.
//
//blaeu:hot
func (o *KNNOracle) estimate(i, j int) float64 {
	best := math.Inf(1)
	for _, row := range o.pivotD {
		if v := row[i] + row[j]; v < best {
			best = v
		}
	}
	return best
}

// RowInto implements Oracle: the row is filled with pivot estimates in
// one O(n·Pivots) sweep, then the exact neighborhood distances overwrite
// their entries.
//
//blaeu:hot
func (o *KNNOracle) RowInto(i int, dst []float64) {
	if len(o.pivotD) == 0 {
		for j := range dst {
			dst[j] = o.Dist(i, j)
		}
		return
	}
	first := o.pivotD[0]
	di := first[i]
	for j := range dst {
		dst[j] = di + first[j]
	}
	for _, row := range o.pivotD[1:] {
		di = row[i]
		for j := range dst {
			if v := di + row[j]; v < dst[j] {
				dst[j] = v
			}
		}
	}
	for t, j := range o.adjIdx[i] {
		dst[j] = o.adjDist[i][t]
	}
	dst[i] = 0
}

// Subset implements Oracle: the subset is a real KNNOracle whose
// adjacency is the induced subgraph (neighbors outside
// the subset drop out; surviving edges keep their exact distances) and
// whose pivot rows are the parent's, restricted to the subset's columns.
// Pivot points need not belong to the subset — the triangle upper bound
// d(i,j) ≤ d(i,p) + d(p,j) holds for any reference point — so far pairs
// keep estimates of the parent's quality while the O(n²) brute-force
// graph build is replaced by an O(Σ degree + Pivots·m) induction.
func (o *KNNOracle) Subset(idx []int) Oracle {
	m := len(idx)
	out := &KNNOracle{metric: o.metric}
	out.vecs = make([][]float64, m)
	for li, p := range idx {
		out.vecs[li] = o.vecs[p]
	}
	// pos maps parent object -> local index + 1 (0 = not in the subset).
	pos := make([]int32, len(o.vecs))
	for li, p := range idx {
		pos[p] = int32(li) + 1
	}
	out.adjIdx = make([][]int32, m)
	out.adjDist = make([][]float64, m)
	for li, p := range idx {
		srcIdx, srcDist := o.adjIdx[p], o.adjDist[p]
		var ids []int32
		var ds []float64
		for t, q := range srcIdx {
			if lq := pos[q]; lq != 0 {
				ids = append(ids, lq-1)
				ds = append(ds, srcDist[t])
			}
		}
		// Parent adjacency is sorted by parent id; the remap preserves
		// that order only when idx is ascending.
		if !int32sSorted(ids) {
			sortByID(ids, ds)
		}
		out.adjIdx[li] = ids
		out.adjDist[li] = ds
	}
	out.pivotD = make([][]float64, len(o.pivotD))
	for pv, row := range o.pivotD {
		nr := make([]float64, m)
		for li, p := range idx {
			nr[li] = row[p]
		}
		out.pivotD[pv] = nr
	}
	return out
}

func int32sSorted(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			return false
		}
	}
	return true
}

// DistEvals implements Oracle: the graph build's brute-force pass
// (n·(n-1) ordered pairs) plus the pivot rows, fixed at construction.
// A subset (induced subgraph) reports 0: induction copies parent
// storage without evaluating the metric.
func (o *KNNOracle) DistEvals() int64 { return o.evals }
