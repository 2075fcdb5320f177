// Package cluster implements the cluster-analysis algorithms Blaeu relies
// on: PAM (Partitioning Around Medoids), its sampling variant CLARA, the
// silhouette coefficient (exact and Monte-Carlo) and automatic selection
// of the number of clusters. PAM and CLARA follow Kaufman & Rousseeuw,
// "Finding Groups in Data" (1990), the reference the paper cites; PAM is
// the one k-medoid engine (BUILD, then FasterPAM's eager SWAP) and
// PAMClassic the textbook loop the tests hold it to.
//
// All algorithms are written against one distance contract, Oracle, and
// every k-medoid loop is written once against it. Two storages implement
// it, and both answer with the same bits; each serves a subset of its
// objects out of its own storage (an index view over the cells, a lazy
// oracle over the re-sliced vectors):
//
//   - DistMatrix materializes all n(n-1)/2 pairs up front — fastest
//     repeated access, O(n²) memory, right for small samples;
//   - LazyOracle computes distances on demand from the prepared vectors
//     with a bounded per-row memo — no quadratic allocation, right when n
//     outgrows the matrix.
//
// NewOracle chooses between them by the number of objects alone, and
// builds a matrix on the storage of a spent one when it is handed one.
//
// AutoK is one sweep over k, and the ks share what cannot change a
// result: on the exact path BUILD runs once, to the largest k — greedy,
// ties to the lowest index, so its seeds for k are the first k of its
// seeds for any larger k — every SWAP uses one row scratch, and the
// winner carries the per-cluster silhouette means the pass that scored it
// produced. Nothing else is shared: CLARA's samples (sized by k) draw
// from the one Rand in k order, and starting k+1 from k's converged
// medoids would be another algorithm.
package cluster

import "repro/internal/stats"

// Oracle is the one distance contract of the cluster layer: pairwise
// dissimilarities over n objects, served a pair at a time, a row at a
// time, or over a subset of the objects. PAM "needs only pairwise
// dissimilarities" (paper §3), so everything here — BUILD, SWAP, CLARA,
// the silhouettes — is written against this interface and works
// identically over a precomputed matrix and over vectors read on demand.
//
// Dist is a dissimilarity: symmetric and zero on the diagonal. Two laws
// tie the other methods to it, bit for bit, and TestOracleContract
// enforces them on every implementation:
//
//   - rows: after RowInto(i, dst), dst[j] == Dist(i, j) for every j;
//   - subsets: Subset(idx).Dist(a, b) == Dist(idx[a], idx[b]).
//
// The laws are what let every loop pick the cheapest access — a row
// where it scans all of one object's distances, a pair where it touches
// a few — without the result depending on the choice or on the storage.
// What a row costs does depend on the storage: a read of stored cells on
// a DistMatrix and its views, n-1 evaluations booked in DistEvals on a
// LazyOracle that has not memoized it. BUILD and SWAP take rows
// anywhere — that work is the build's; the silhouettes only where they
// are reads (see silhouettes).
//
// An oracle is read-only once built (LazyOracle's memo synchronizes
// itself) and a subset only reads its parent's storage, so oracles are
// safe for concurrent use and several subsets of one parent (CLARA's
// samples) may be used at once.
type Oracle interface {
	// N returns the number of objects.
	N() int
	// Dist returns the dissimilarity between objects i and j.
	Dist(i, j int) float64
	// RowInto fills dst[j] = Dist(i, j) for all j; dst must have length
	// N(). Loops that scan a whole row per step (BUILD scoring, SWAP's
	// candidate evaluation) use it: one sequential pass over the backing
	// storage instead of n interface calls and index computations.
	RowInto(i int, dst []float64)
	// Subset returns an oracle over the objects idx, re-indexed densely:
	// its object a is this oracle's object idx[a]. A matrix serves it as
	// an index view over its cells, a lazy oracle as a lazy oracle over
	// the re-sliced vectors. Its clients are CLARA's per-sample PAM runs
	// and the Monte-Carlo silhouette's rounds. Entries of idx must be
	// distinct, valid indices; idx is retained, so callers must not
	// mutate it afterwards.
	Subset(idx []int) Oracle
	// DistEvals returns the cumulative number of exact metric
	// evaluations embodied in the oracle's storage — matrix cells and
	// materialized rows; callers interested in one build take a
	// before/after delta (see core's build trace). The count is
	// storage-based, not call-based: fixed at construction (DistMatrix)
	// or kept under a lock the oracle already takes (LazyOracle's row
	// memo), never by instrumenting the per-call Dist path, where a
	// shared counter measurably slows PAM's hot loops. So LazyOracle's
	// lock-free Dist goes uncounted, and a subset reports only
	// evaluations of its own: a view's reads of the matrix are reuse,
	// not new work.
	DistEvals() int64
}

// OracleStrategy is ignored by BuildOracle; removed with ROADMAP 8(f).
type OracleStrategy int

// OracleAuto is OracleStrategy's only value; removed with ROADMAP 8(f).
const OracleAuto OracleStrategy = 0

// KNNOracleOptions is ignored by BuildOracle; removed with ROADMAP 8(f).
type KNNOracleOptions struct{}

// DefaultMaterializeThreshold is the object count above which NewOracle
// stops materializing the condensed matrix (≈16 MB of distances).
const DefaultMaterializeThreshold = 2048

// NewOracle builds the distance oracle for the vectors: a DistMatrix for
// at most DefaultMaterializeThreshold objects, a LazyOracle above. The
// two answer with the same bits, so the choice moves memory and speed,
// never a clustering. scratch, which may be nil, is a matrix its owner is
// done with: the new matrix takes over its storage when that has room
// for n objects, and allocates its own otherwise. A caller that hands
// each build's matrix to the next allocates the triangle once.
func NewOracle(vecs [][]float64, metric stats.Distance, scratch *DistMatrix) Oracle {
	if len(vecs) > DefaultMaterializeThreshold {
		return NewLazyOracle(vecs, metric)
	}
	return computeDistMatrix(vecs, metric, scratch)
}

// BuildOracle is NewOracle with no storage to reuse; its last three
// parameters are ignored. Removed with ROADMAP 8(f).
func BuildOracle(vecs [][]float64, metric stats.Distance, _ OracleStrategy, _ int, _ KNNOracleOptions) Oracle {
	return NewOracle(vecs, metric, nil)
}
