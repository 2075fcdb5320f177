// Package cluster implements the cluster-analysis algorithms Blaeu relies
// on: PAM (Partitioning Around Medoids), its sampling variant CLARA, the
// silhouette coefficient (exact and Monte-Carlo) and automatic selection
// of the number of clusters. PAM and CLARA follow Kaufman & Rousseeuw,
// "Finding Groups in Data" (1990), the reference the paper cites; PAM is
// the one k-medoid engine (BUILD, then FasterPAM's eager SWAP), and the
// textbook SWAP loop lives in the tests as the reference PAM is held to.
//
// All algorithms are written against one distance contract, Oracle: the
// objects' distance rows. Every k-medoid loop and the silhouettes are
// written once against it and read distances a row at a time on every
// storage. Two storages implement it, and both answer with the same bits:
//
//   - DistMatrix materializes all n(n-1)/2 pairs up front — fastest
//     repeated access, O(n²) memory — and is the oracle of exact PAM,
//     whose BUILD and SWAP read every pair many times;
//   - LazyOracle is the prepared vectors and the metric, computing every
//     row on demand with no memo — no quadratic allocation — and is the
//     oracle of CLARA, which reads only its samples' and Monte-Carlo
//     rounds' small matrices and k medoid rows per sample.
//
// NewOracle chooses between them at the one crossover, the object count
// above which AutoK leaves exact PAM for CLARA, and builds a matrix on
// the storage of a spent one when it is handed one.
//
// AutoK is one sweep over k, and the ks share one set of draws and what
// cannot change a result. On the exact path BUILD runs once, to the
// largest k — greedy, ties to the lowest index, so its seeds for k are
// the first k of its seeds for any larger k — and the winner carries the
// per-cluster silhouette means the pass that scored it produced. On the
// CLARA path the sweep draws CLARA's five samples once, at the largest
// k's size, each in the order drawn, and every k clusters the leading
// objects of each: a prefix of a uniformly ordered sample is a uniform
// sample, and its matrix is the leading principal block of the sample's
// one matrix. The Monte-Carlo silhouette's rounds are drawn once too,
// and every k is scored on the same rounds, so "k = 3 beats k = 4" is a
// paired comparison (common random numbers), each subset's distances
// are computed once per sweep, and the winner's per-cluster means come
// from the same rounds. Every k sweeps in one Scratch: SWAP's and
// BUILD's state, the row and block buffers, a slot per CLARA sample, the
// Monte-Carlo rounds' and the silhouette kernel's buffers and the labels
// of the k being scored and of the best. Storage cannot change a result
// either: every cell is written before it is read, so a scratch a larger
// or smaller sweep left gives the bits a new one gives, and a caller
// that keeps one (core keeps one per build scratch) allocates only the
// clusterings it is handed. Starting k+1 from k's converged medoids
// would be another algorithm.
package cluster

import "repro/internal/stats"

// Oracle is the one distance contract of the cluster layer: pairwise
// dissimilarities over n objects, served a row at a time or over a
// subset of the objects. PAM "needs only pairwise dissimilarities"
// (paper §3), so everything here — BUILD, SWAP, CLARA, the silhouettes —
// is written against this interface, reads whole rows, and works
// identically over a precomputed matrix and over vectors read on demand.
//
// Three laws hold bit for bit, and TestOracleContract enforces them on
// every implementation:
//
//   - symmetry: RowInto(i)[j] == RowInto(j)[i];
//   - a zero diagonal: RowInto(i)[i] == 0;
//   - subsets: row a of Subset(idx) at b equals row idx[a] at idx[b].
//
// So no result depends on the storage, or on whose row a loop reads a
// pair from. What a row costs does: a read of stored cells on a
// DistMatrix, n-1 evaluations booked in DistEvals on a
// LazyOracle.
//
// An oracle's distances are fixed once it is built (LazyOracle's count
// is atomic) and a subset only reads its parent's storage or vectors,
// so oracles are safe for concurrent use and several subsets of one
// parent (CLARA's samples) may be built and used at once.
type Oracle interface {
	// N returns the number of objects.
	N() int
	// RowInto fills dst[j] with the dissimilarity between objects i
	// and j, for all j; dst must have length N(). It is one sequential
	// pass over the backing storage, or one metric row call.
	RowInto(i int, dst []float64)
	// Subset returns an oracle over the objects idx, re-indexed densely:
	// its object a is this oracle's object idx[a]. A matrix serves it as
	// a matrix of its cells copied out, a lazy oracle as a matrix over
	// the re-sliced vectors. The cluster layer's own samples and rounds
	// are such matrices, filled in its Scratch (see subsetStore).
	// Entries of idx must be distinct, valid indices; idx may be
	// retained, so callers must not mutate it afterwards.
	Subset(idx []int) Oracle
	// DistEvals returns the cumulative number of exact metric
	// evaluations the oracle has made: a matrix's cells, fixed at
	// construction; a lazy oracle's rows, n-1 each, and the cells of
	// every subset matrix it built, in one atomic count: every
	// evaluation. Callers interested in one build take a before/after
	// delta (see core's build trace). A matrix subset of a matrix counts
	// its copied cells as its own; no build's count reads one.
	DistEvals() int64
}

// OracleStrategy is ignored by BuildOracle; removed with ROADMAP 8(f).
type OracleStrategy int

// OracleAuto is OracleStrategy's only value; removed with ROADMAP 8(f).
const OracleAuto OracleStrategy = 0

// KNNOracleOptions is ignored by BuildOracle; removed with ROADMAP 8(f).
type KNNOracleOptions struct{}

// DefaultPAMThreshold is the engine's default crossover: the object
// count above which a map build leaves exact PAM for CLARA with
// Monte-Carlo silhouettes (AutoKOptions.LargeThreshold and
// MCSilhouetteThreshold), and so above which its oracle is lazy.
const DefaultPAMThreshold = 1024

// NewOracle builds the distance oracle a sweep whose crossover is
// pamThreshold clusters: a DistMatrix for at most pamThreshold objects,
// where AutoK runs exact PAM, and a LazyOracle above, where it runs
// CLARA, which reads no full matrix. The two answer with the same bits,
// so the choice moves memory and speed, never a clustering. scratch,
// which may be nil, is a matrix its owner is done with: the new matrix
// takes over its storage when that has room for n objects, and
// allocates its own otherwise. A caller that hands each build's matrix
// to the next allocates the triangle once, and never holds one above
// the crossover.
func NewOracle(vecs [][]float64, metric stats.Distance, pamThreshold int, scratch *DistMatrix) Oracle {
	if len(vecs) > pamThreshold {
		return NewLazyOracle(vecs, metric)
	}
	return computeDistMatrix(vecs, metric, scratch)
}

// BuildOracle is NewOracle at DefaultPAMThreshold with no storage to
// reuse; its last three parameters are ignored. Removed with ROADMAP
// 8(f).
func BuildOracle(vecs [][]float64, metric stats.Distance, _ OracleStrategy, _ int, _ KNNOracleOptions) Oracle {
	return NewOracle(vecs, metric, DefaultPAMThreshold, nil)
}
