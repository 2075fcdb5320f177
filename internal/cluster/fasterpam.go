package cluster

import (
	"math"

	"repro/internal/cores"
)

// swapBlock is the number of candidates evaluated per parallel batch of
// the eager SWAP loop. It is a fixed constant — not a function of
// GOMAXPROCS — so clustering results never depend on the machine's core
// count, only on the input.
const swapBlock = 64

// parallelThreshold is the input size below which the parallel helpers
// run sequentially; goroutine overhead dominates under it.
const parallelThreshold = 128

// maxWorkers is the chunk count of the parallel helpers: the cores
// budget's width. A variable so that tests can force more chunks than
// the machine has cores, and the race detector can see them.
var maxWorkers = cores.Width()

// rangeWorkers returns how many chunks an n-item parallel job splits
// into: 1 (sequential) below parallelThreshold, else up to maxWorkers
// capped at n.
func rangeWorkers(n int) int {
	if n < parallelThreshold || maxWorkers <= 1 {
		return 1
	}
	return min(maxWorkers, n)
}

// parallelChunks is the one fan-out idiom every parallel helper here
// builds on: it splits [0,n) into contiguous chunks, at most workers of
// them, and runs fn(chunk, lo, hi) for each through cores.Run, on
// whatever cores are free. Chunk indices are dense from 0 and chunk w
// covers lower indices than chunk w+1, which reductions rely on for
// deterministic tie-breaking; each chunk runs on one goroutine, so it
// may use scratch indexed by w. workers <= 1 or n <= 1 runs inline.
func parallelChunks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	cores.Run((n+chunk-1)/chunk, func(w int) {
		lo := w * chunk
		fn(w, lo, min(lo+chunk, n))
	})
}

// newRowScratch allocates the distance-row scratch of one k-medoid run
// over n objects, one n-sized buffer per worker it can fan out to. The
// run owns it: BUILD's scoring and nearest updates and SWAP's candidate
// evaluation all materialize rows into the same buffers.
func newRowScratch(n int) [][]float64 {
	rows := make([][]float64, rangeWorkers(n))
	for w := range rows {
		rows[w] = make([]float64, n)
	}
	return rows
}

// argMinScore evaluates score(i) for every i in [0,n) across one worker
// per row buffer and returns the argmin and its value. Each worker hands
// score its own buffer of rows, to materialize distance rows into. Exact
// ties resolve to the lowest index, so the result is identical to a
// sequential first-wins scan regardless of core count.
func argMinScore(n int, rows [][]float64, score func(i int, row []float64) float64) (int, float64) {
	type result struct {
		idx int
		val float64
	}
	results := make([]result, len(rows))
	for w := range results {
		// parallelChunks may launch fewer chunks than workers (chunk size
		// is rounded up); unwritten slots must lose every comparison, not
		// sit at the zero value {idx: 0, val: 0} pretending object 0
		// scored 0.
		results[w] = result{-1, math.Inf(1)}
	}
	parallelChunks(n, len(rows), func(w, lo, hi int) {
		best, bestV := -1, math.Inf(1)
		for i := lo; i < hi; i++ {
			if v := score(i, rows[w]); v < bestV {
				best, bestV = i, v
			}
		}
		results[w] = result{best, bestV}
	})
	best, bestV := -1, math.Inf(1)
	// Chunks are in ascending index order, so a strict < keeps the lowest
	// index on ties.
	for _, r := range results {
		if r.idx >= 0 && r.val < bestV {
			best, bestV = r.idx, r.val
		}
	}
	return best, bestV
}

// parallelRange splits [0,n) into contiguous chunks and runs fn on each
// through cores.Run; sequential below parallelThreshold.
func parallelRange(n int, fn func(lo, hi int)) {
	parallelChunks(n, rangeWorkers(n), func(_, lo, hi int) { fn(lo, hi) })
}

// updateNearest lowers nearest[j] to Dist(m, j) wherever medoid m's row
// improves it. row is an n-sized buffer m's row is materialized into.
//
//blaeu:hot
func updateNearest(o Oracle, nearest, row []float64, m int) {
	o.RowInto(m, row)
	for j, d := range row {
		if d < nearest[j] {
			nearest[j] = d
		}
	}
}

// pamBuild is PAM's BUILD phase: pick the object minimizing total distance
// as the first medoid, then greedily add the object that most reduces the
// total dissimilarity. Candidate scoring is spread across the workers of
// rows (the run's scratch, see newRowScratch); the result is identical to
// the sequential scan (ties break to the lowest index). PAM and the
// textbook reference the tests hold it to both start from its seeds.
func pamBuild(o Oracle, k int, rows [][]float64) []int {
	n := o.N()
	medoids := make([]int, 0, k)

	// First medoid: the most central object.
	//blaeu:hot
	first, _ := argMinScore(n, rows, func(i int, row []float64) float64 {
		o.RowInto(i, row)
		sum := 0.0
		for _, d := range row {
			sum += d
		}
		return sum
	})
	medoids = append(medoids, first)

	nearest := make([]float64, n)
	for j := range nearest {
		nearest[j] = math.Inf(1)
	}
	updateNearest(o, nearest, rows[0], first)
	chosen := make([]bool, n)
	chosen[first] = true

	for len(medoids) < k {
		// Greedy addition: maximize the total distance reduction (argmin
		// of the negated gain).
		//blaeu:hot
		bestI, _ := argMinScore(n, rows, func(i int, row []float64) float64 {
			if chosen[i] {
				return math.Inf(1)
			}
			o.RowInto(i, row)
			gain := 0.0
			for j, d := range row {
				if chosen[j] || j == i {
					continue
				}
				if d < nearest[j] {
					gain += nearest[j] - d
				}
			}
			return -gain
		})
		chosen[bestI] = true
		medoids = append(medoids, bestI)
		updateNearest(o, nearest, rows[0], bestI)
	}
	return medoids
}

// swapState is the incremental bookkeeping of the FasterPAM SWAP phase:
// for every object the slot (position in medoids) and distance of its
// nearest and second-nearest medoid, plus the per-medoid removal losses.
type swapState struct {
	o        Oracle
	n, k     int
	medoids  []int
	isMedoid []bool
	n1, n2   []int     // slot of nearest / second-nearest medoid
	dn, ds   []float64 // distance to nearest / second-nearest medoid
	loss     []float64 // removal loss ΔTD⁻ per medoid slot
	cost     float64
}

func newSwapState(o Oracle, medoids []int) *swapState {
	n := o.N()
	s := &swapState{
		o: o, n: n, k: len(medoids), medoids: medoids,
		isMedoid: make([]bool, n),
		n1:       make([]int, n), n2: make([]int, n),
		dn: make([]float64, n), ds: make([]float64, n),
		loss: make([]float64, len(medoids)),
	}
	for _, m := range medoids {
		s.isMedoid[m] = true
	}
	parallelRange(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			s.reassign(j)
		}
	})
	s.refresh()
	return s
}

// reassign recomputes object j's nearest and second-nearest medoid with a
// full O(k) scan — the fallback when an incremental update is impossible.
//
//blaeu:hot
func (s *swapState) reassign(j int) {
	d1, d2 := math.Inf(1), math.Inf(1)
	i1, i2 := -1, -1
	for slot, m := range s.medoids {
		d := s.o.Dist(j, m)
		if d < d1 {
			d2, i2 = d1, i1
			d1, i1 = d, slot
		} else if d < d2 {
			d2, i2 = d, slot
		}
	}
	s.dn[j], s.ds[j] = d1, d2
	s.n1[j], s.n2[j] = i1, i2
}

// refresh recomputes the removal losses and total cost from the cached
// nearest/second arrays in O(n+k). The removal loss of medoid i is the
// cost increase of deleting it with no replacement: every member falls
// back to its second-nearest medoid.
func (s *swapState) refresh() {
	for i := range s.loss {
		s.loss[i] = 0
	}
	total := 0.0
	for j := 0; j < s.n; j++ {
		s.loss[s.n1[j]] += s.ds[j] - s.dn[j]
		total += s.dn[j]
	}
	s.cost = total
}

// evalCandidate computes, in ONE O(n) pass, the cost delta of swapping
// candidate c in for the best possible of all k current medoids — the
// FasterPAM removal-loss decomposition. scratch must be k-sized; it
// accumulates the per-medoid delta while acc collects the shared gain of
// objects that move to c no matter which medoid is removed. row is an
// n-sized buffer c's distance row is materialized into. Returns the best
// total delta and the slot of the medoid to remove.
//
//blaeu:hot
func (s *swapState) evalCandidate(c int, scratch, row []float64) (float64, int) {
	copy(scratch, s.loss)
	acc := 0.0
	s.o.RowInto(c, row)
	for j, d := range row {
		if d < s.dn[j] {
			// j switches to c regardless of the removed medoid; cancel
			// its removal-loss contribution (it no longer falls back
			// to its second when its nearest goes away).
			acc += d - s.dn[j]
			scratch[s.n1[j]] += s.dn[j] - s.ds[j]
		} else if d < s.ds[j] {
			// j switches to c only if its nearest medoid is the one
			// removed: it prefers c over its current second.
			scratch[s.n1[j]] += d - s.ds[j]
		}
	}
	bestSlot := 0
	for i := 1; i < s.k; i++ {
		if scratch[i] < scratch[bestSlot] {
			bestSlot = i
		}
	}
	return acc + scratch[bestSlot], bestSlot
}

// applySwap installs candidate c in the given medoid slot and repairs the
// nearest/second bookkeeping incrementally from c's distance row: most
// objects need O(1) work, only those whose nearest or second was the
// replaced medoid fall back to an O(k) rescan. Classic PAM instead re-ran
// a full O(n·k) assignment after every swap.
func (s *swapState) applySwap(slot, c int, row []float64) {
	s.isMedoid[s.medoids[slot]] = false
	s.isMedoid[c] = true
	s.medoids[slot] = c
	s.o.RowInto(c, row)
	parallelRange(s.n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			d := row[j]
			switch {
			case s.n1[j] == slot:
				if d <= s.ds[j] {
					// Slot stays nearest, now holding c; the second-best
					// medoid is untouched.
					s.dn[j] = d
				} else {
					s.reassign(j)
				}
			case s.n2[j] == slot:
				if d < s.dn[j] {
					// c leapfrogs the old nearest: it becomes second.
					s.n2[j], s.ds[j] = s.n1[j], s.dn[j]
					s.n1[j], s.dn[j] = slot, d
				} else {
					// The second-nearest medoid was replaced by something
					// farther; the new runner-up is unknown.
					s.reassign(j)
				}
			default:
				if d < s.dn[j] {
					s.n2[j], s.ds[j] = s.n1[j], s.dn[j]
					s.n1[j], s.dn[j] = slot, d
				} else if d < s.ds[j] {
					s.n2[j], s.ds[j] = slot, d
				}
			}
		}
	})
	s.refresh()
}

// fasterPAMFrom runs the eager removal-loss SWAP phase from the given
// seed medoids (which it copies, not mutates), materializing candidate
// rows into the run's scratch. Preconditions (1 < k < n) are the
// caller's responsibility.
func fasterPAMFrom(o Oracle, k int, seeds []int, rows [][]float64) (*Clustering, error) {
	n := o.N()
	medoids := append([]int(nil), seeds...)

	s := newSwapState(o, medoids)
	type verdict struct {
		delta float64
		slot  int
	}
	cands := make([]int, 0, swapBlock)
	out := make([]verdict, swapBlock)
	// Per-worker removal-loss scratch, allocated once for the whole run
	// like the rows: the SWAP loop evaluates blocks constantly and
	// per-block buffers would be pure GC churn on its hottest path.
	blockWorkers := min(len(rows), swapBlock)
	scratchBufs := make([][]float64, blockWorkers)
	for w := range scratchBufs {
		scratchBufs[w] = make([]float64, s.k)
	}

	for pass := 0; pass < maxSwapIters; pass++ {
		improved := false
		for start := 0; start < n; start += swapBlock {
			end := min(start+swapBlock, n)
			cands = cands[:0]
			for c := start; c < end; c++ {
				if !s.isMedoid[c] {
					cands = append(cands, c)
				}
			}
			if len(cands) == 0 {
				continue
			}
			// Each candidate costs O(n), so parallelism pays off even for
			// a partial block once n is long enough — which rangeWorkers
			// decided when rows was sized.
			parallelChunks(len(cands), min(blockWorkers, len(cands)), func(w, lo, hi int) {
				for bi := lo; bi < hi; bi++ {
					out[bi].delta, out[bi].slot = s.evalCandidate(cands[bi], scratchBufs[w], rows[w])
				}
			})
			best := -1
			for bi := range cands {
				// The textbook loop's numeric guard, so FP noise never causes
				// swap cycles; ties keep the lowest candidate index.
				if out[bi].delta < -1e-12 && (best < 0 || out[bi].delta < out[best].delta) {
					best = bi
				}
			}
			if best >= 0 {
				s.applySwap(out[best].slot, cands[best], rows[0])
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	return &Clustering{K: k, Labels: s.n1, Medoids: s.medoids, Cost: s.cost, Silhouette: math.NaN()}, nil
}
