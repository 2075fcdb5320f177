// Package cluster implements the cluster-analysis algorithms Blaeu relies
// on: PAM (Partitioning Around Medoids), its sampling variant CLARA, the
// silhouette coefficient (exact and Monte-Carlo) and automatic selection
// of the number of clusters. PAM and CLARA follow Kaufman & Rousseeuw,
// "Finding Groups in Data" (1990), the reference the paper cites; PAM is
// the one k-medoid engine (BUILD, then FasterPAM's eager SWAP), and the
// textbook SWAP loop lives in the tests as the reference PAM is held to.
//
// PAM's BUILD and SWAP read a DistMatrix, the condensed triangle, with
// no interface call, and every matrix a sweep reads is its Scratch's.
// The objects' distances are stored one of two ways, which answer with
// the same bits, behind one row contract, Oracle:
//
//   - DistMatrix materializes all n(n-1)/2 pairs up front — fastest
//     repeated access, O(n²) memory — and is exact PAM's: its BUILD,
//     SWAP and silhouettes read every pair many times;
//   - LazyOracle is the prepared vectors and the metric, computing every
//     row on demand with no memo — no quadratic allocation — and is
//     CLARA's, which reads only its samples' and Monte-Carlo rounds'
//     small matrices, filled from the vectors in the Scratch, and k
//     medoid rows per sample.
//
// Scratch.Oracle chooses between them at the one crossover, the object
// count above which AutoK leaves exact PAM for CLARA, and builds the
// matrix on the scratch's own storage.
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
// paired comparison (common random numbers), the samples' and rounds'
// matrices are filled once per sweep, all in one fan-out, and the
// winner's per-cluster means come from the same rounds. Every k sweeps
// in one Scratch: the exact path's matrix, SWAP's and BUILD's state, the row and block buffers, a slot per CLARA sample, the
// Monte-Carlo rounds' and the silhouette kernel's buffers and the labels
// of the k being scored and of the best. Storage cannot change a result
// either: every cell is written before it is read, so a scratch a larger
// or smaller sweep left gives the bits a new one gives, and a caller
// that keeps one (core keeps one per build scratch) allocates only the
// clusterings it is handed. Starting k+1 from k's converged medoids
// would be another algorithm.
package cluster

import "repro/internal/stats"

// Oracle is the cluster layer's row contract: pairwise dissimilarities
// over n objects, served a row at a time. PAM "needs only pairwise
// dissimilarities" (paper §3); its BUILD and SWAP read a DistMatrix,
// and what reads an Oracle reads rows of either storage: the silhouette
// kernel (the exact Silhouette over lazy vectors, a rare cluster's
// exact mean after the Monte-Carlo rounds, SilhouettePerCluster) and
// CLARA's full-data assignment.
//
// Two row laws hold bit for bit, and TestOracleContract enforces them on
// both storages:
//
//   - symmetry: RowInto(i)[j] == RowInto(j)[i];
//   - a zero diagonal: RowInto(i)[i] == 0.
//
// So no result depends on the storage, or on whose row a loop reads a
// pair from. What a row costs does: a read of stored cells on a
// DistMatrix, n-1 evaluations booked in DistEvals on a LazyOracle. The
// subset store's law joins them: the matrix a CLARA sample or a
// Monte-Carlo round is filled into over the objects idx holds at (a, b)
// row idx[a] at idx[b], whichever storage filled it.
//
// The interface is sealed: only DistMatrix and LazyOracle fill those
// matrices, each by its own code (a copy of cells, or metric rows over
// the re-sliced vectors). An oracle's distances are fixed once it is
// built (LazyOracle's count is atomic) and a fill only reads its
// storage or vectors, so oracles are safe for concurrent use and
// several of a sweep's matrices may be filled from one at once.
type Oracle interface {
	// N returns the number of objects.
	N() int
	// RowInto fills dst[j] with the dissimilarity between objects i
	// and j, for all j; dst must have length N(). It is one sequential
	// pass over the backing storage, or one metric row call.
	RowInto(i int, dst []float64)
	// DistEvals returns the cumulative number of exact metric
	// evaluations the oracle has made: a matrix's cells, fixed at
	// construction; a lazy oracle's rows, n-1 each, and the cells of
	// every matrix filled from it, in one atomic count: every
	// evaluation. Callers interested in one build take a before/after
	// delta (see core's build trace).
	DistEvals() int64
	// fillSubset writes the oracle's distances among the objects idx,
	// in idx's order, into st's matrix on the storage it holds, on the
	// calling goroutine. Entries of idx are distinct, valid indices.
	fillSubset(idx []int, st *subsetStore)
}

// OracleStrategy is ignored by BuildOracle; removed with ROADMAP 8(f).
type OracleStrategy int

// OracleAuto is OracleStrategy's only value; removed with ROADMAP 8(f).
const OracleAuto OracleStrategy = 0

// KNNOracleOptions is ignored by BuildOracle; removed with ROADMAP 8(f).
type KNNOracleOptions struct{}

// DefaultPAMThreshold is the engine's default crossover: the object
// count above which a map build leaves exact PAM for CLARA with
// Monte-Carlo silhouettes (AutoKOptions.LargeThreshold), and so above
// which its oracle is lazy.
const DefaultPAMThreshold = 1024

// Oracle builds the distance oracle of a sweep whose crossover is
// threshold, as AutoKOptions.LargeThreshold reads it: a DistMatrix for
// at most threshold objects (or any number, at 0), where AutoK runs
// exact PAM, and a LazyOracle above, where it runs CLARA, which reads no
// full matrix. The two answer with the same bits, so the choice moves
// memory and speed, never a clustering. The matrix is the scratch's own:
// it is built on the storage the scratch's last matrix left when that
// has room, and is valid until the scratch builds the next one. A
// caller that keeps its Scratch allocates the triangle once, and never
// holds one above the crossover.
func (s *Scratch) Oracle(vecs [][]float64, metric stats.Distance, threshold int) Oracle {
	if above(len(vecs), threshold) {
		return NewLazyOracle(vecs, metric)
	}
	s.matrix = computeDistMatrix(vecs, metric, s.matrix)
	return s.matrix
}

// BuildOracle is Scratch.Oracle at DefaultPAMThreshold in a scratch of
// its own; its last three parameters are ignored. Removed with ROADMAP
// 8(f).
func BuildOracle(vecs [][]float64, metric stats.Distance, _ OracleStrategy, _ int, _ KNNOracleOptions) Oracle {
	return new(Scratch).Oracle(vecs, metric, DefaultPAMThreshold)
}
