package cluster

import (
	"errors"
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

// ErrNoFiniteDistance is BUILD's error when no object it may pick scores
// a finite total distance: every candidate's sum holds a +Inf or a NaN
// distance, as it does when one vector holds an infinite coordinate
// (prep imputes infinite cells). PAM, CLARA and AutoK return it rather
// than pick a medoid at random.
var ErrNoFiniteDistance = errors.New("cluster: BUILD found no object with a finite distance score")

// pamRun is the storage one k-medoid run works in, BUILD's and SWAP's
// alike, kept for the next run: a run over n objects regrows only what
// is shorter than n (or k), and writes every cell it reads. After a run
// its medoids are in medoids, its labels in n1 and its cost in cost.
type pamRun struct {
	swapState
	// The fan-out's task state (see fanOut): the step its chunks run,
	// the range it splits and the chunk length, the task its batch
	// calls, bound once per run storage, and the batch, so that no step
	// allocates.
	step      step
	fanN, per int
	task      func(w int)
	batch     cores.Batch
	// applySlot is the medoid slot applySwap's step installs into.
	applySlot int
	// rows holds one n-sized distance-row buffer per worker a run over
	// n objects fans out to (rangeWorkers): BUILD's scoring and nearest
	// updates and SWAP's candidate evaluation all materialize rows in
	// them.
	rows [][]float64
	// BUILD: each worker's best candidate, each object's distance to
	// its nearest seed, the seeds so far as a set and in order.
	results []argMin
	nearest []float64
	chosen  []bool
	seeds   []int
	// SWAP: one block's candidates and their verdicts, and each worker's
	// k-sized removal-loss buffer.
	cands    []int
	verdicts []verdict
	losses   [][]float64
}

// argMin is one worker's best candidate in argMinScore.
type argMin struct {
	idx int
	val float64
}

// verdict is SWAP's best delta for one candidate and the medoid slot it
// replaces.
type verdict struct {
	delta float64
	slot  int
}

// grow returns buf resliced to length n, reallocated when its capacity
// is short. Its contents are stale: the caller writes every cell it
// reads.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sizeRows readies one n-sized row buffer per worker of a run over n
// objects.
func (r *pamRun) sizeRows(n int) {
	r.rows = grow(r.rows, rangeWorkers(n))
	for w := range r.rows {
		r.rows[w] = grow(r.rows[w], n)
	}
}

// step names the chunked work of one fan-out of a run: BUILD's
// scoring of every object's row sum (the first medoid) or negated gain
// (each later one), SWAP's full reassignment of every object, the
// incremental repair after a swap, and the evaluation of one block's
// candidates.
type step uint8

const (
	stepCentral step = iota
	stepGain
	stepReassign
	stepApply
	stepEval
)

// fanOut runs st over [0, n) in at most workers contiguous chunks:
// chunk w covers lower indices than chunk w+1, which reductions rely on
// for deterministic tie-breaking, and runs on one goroutine, so it may
// use the buffers indexed by w. One worker, or n <= 1, runs inline as
// chunk 0; more go through the run's batch, on whatever cores are
// free, calling the task the run binds on its first fan-out.
func (r *pamRun) fanOut(st step, n, workers int) {
	r.step = st
	if workers <= 1 || n <= 1 {
		r.chunk(0, 0, n)
		return
	}
	r.fanN, r.per = n, (n+workers-1)/workers
	if r.task == nil {
		r.task = func(w int) {
			lo := w * r.per
			r.chunk(w, lo, min(lo+r.per, r.fanN))
		}
	}
	r.batch.Run((n+r.per-1)/r.per, r.task)
}

// chunk runs objects (or, for stepEval, block candidates) [lo, hi) of
// the current step as worker w.
//
//blaeu:hot
func (r *pamRun) chunk(w, lo, hi int) {
	switch r.step {
	case stepCentral, stepGain:
		r.argMinChunk(w, lo, hi)
	case stepReassign:
		for j := lo; j < hi; j++ {
			r.reassign(j)
		}
	case stepApply:
		r.applyChunk(lo, hi)
	case stepEval:
		r.evalChunk(w, lo, hi)
	}
}

// argMinScore scores every object in [0,n) under BUILD's current step
// across one worker per row buffer and returns the argmin and its
// value, or −1 when no score is below +Inf. Each worker materializes
// distance rows in its own buffer. Exact ties resolve to the lowest
// index, so the result is identical to a sequential first-wins scan
// regardless of core count.
func (r *pamRun) argMinScore(st step, n int) (int, float64) {
	r.results = grow(r.results, len(r.rows))
	for w := range r.results {
		// A fan-out may run fewer chunks than workers (chunk size is
		// rounded up); unwritten slots must lose every comparison, not
		// sit at the zero value {idx: 0, val: 0} pretending object 0
		// scored 0.
		r.results[w] = argMin{-1, math.Inf(1)}
	}
	r.fanOut(st, n, len(r.rows))
	best, bestV := -1, math.Inf(1)
	// Chunks are in ascending index order, so a strict < keeps the lowest
	// index on ties.
	for _, res := range r.results {
		if res.idx >= 0 && res.val < bestV {
			best, bestV = res.idx, res.val
		}
	}
	return best, bestV
}

// argMinChunk is worker w's share of argMinScore: the first-wins argmin
// of objects [lo, hi) under the current step.
//
//blaeu:hot
func (r *pamRun) argMinChunk(w, lo, hi int) {
	best, bestV := -1, math.Inf(1)
	row := r.rows[w]
	for i := lo; i < hi; i++ {
		var v float64
		if r.step == stepCentral {
			v = r.rowSum(i, row)
		} else {
			v = r.negGain(i, row)
		}
		if v < bestV {
			best, bestV = i, v
		}
	}
	r.results[w] = argMin{best, bestV}
}

// rowSum is object i's total distance, the first medoid's score; row is
// the n-sized buffer its row is materialized into.
//
//blaeu:hot
func (r *pamRun) rowSum(i int, row []float64) float64 {
	r.m.RowInto(i, row)
	sum := 0.0
	for _, d := range row {
		sum += d
	}
	return sum
}

// negGain is BUILD's score of object i as the next medoid: the negated
// total distance reduction it brings, +Inf for a seed already chosen.
//
//blaeu:hot
func (r *pamRun) negGain(i int, row []float64) float64 {
	chosen, nearest := r.chosen, r.nearest
	if chosen[i] {
		return math.Inf(1)
	}
	r.m.RowInto(i, row)
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
}

// updateNearest lowers each nearest[j] that medoid med's row of m
// improves. row is an n-sized buffer the row is materialized into.
//
//blaeu:hot
func updateNearest(m *DistMatrix, nearest, row []float64, med int) {
	m.RowInto(med, row)
	for j, d := range row {
		if d < nearest[j] {
			nearest[j] = d
		}
	}
}

// build is PAM's BUILD phase: pick the object minimizing total distance
// as the first medoid, then greedily add the object that most reduces the
// total dissimilarity. Candidate scoring is spread across the workers of
// r's rows; the result is identical to the sequential scan (ties break
// to the lowest index). PAM and the textbook reference the tests hold it
// to both start from its seeds, which it returns in r.seeds. A step
// where no candidate scores below +Inf is ErrNoFiniteDistance.
func (r *pamRun) build(m *DistMatrix, k int) ([]int, error) {
	n := m.N()
	r.sizeRows(n)
	// The scoring steps read m as SWAP's do; the run keeps its buffers,
	// not the matrix (see swap).
	r.m = m
	defer func() { r.m = nil }()
	medoids := grow(r.seeds, k)[:0]

	// First medoid: the most central object.
	first, _ := r.argMinScore(stepCentral, n)
	if first < 0 {
		return nil, ErrNoFiniteDistance
	}
	medoids = append(medoids, first)

	r.nearest = grow(r.nearest, n)
	for j := range r.nearest {
		r.nearest[j] = math.Inf(1)
	}
	updateNearest(m, r.nearest, r.rows[0], first)
	r.chosen = grow(r.chosen, n)
	clear(r.chosen)
	r.chosen[first] = true

	// Greedy addition: maximize the total distance reduction (argmin of
	// the negated gain).
	for len(medoids) < k {
		bestI, _ := r.argMinScore(stepGain, n)
		if bestI < 0 {
			return nil, ErrNoFiniteDistance
		}
		r.chosen[bestI] = true
		medoids = append(medoids, bestI)
		updateNearest(m, r.nearest, r.rows[0], bestI)
	}
	r.seeds = medoids
	return medoids, nil
}

// swapState is the incremental bookkeeping of the FasterPAM SWAP phase:
// for every object the slot (position in medoids) and distance of its
// nearest and second-nearest medoid, plus the per-medoid removal losses.
type swapState struct {
	m          *DistMatrix
	n, k       int
	medoids    []int
	medoidRows [][]float64 // medoidRows[slot]: the row of medoids[slot]
	isMedoid   []bool
	n1, n2     []int     // slot of nearest / second-nearest medoid
	dn, ds     []float64 // distance to nearest / second-nearest medoid
	loss       []float64 // removal loss ΔTD⁻ per medoid slot
	cost       float64
}

// reset readies the run's SWAP state over m from the seed medoids,
// which it copies into its own buffer with their rows, regrowing as
// needed.
func (r *pamRun) reset(m *DistMatrix, seeds []int) {
	s := &r.swapState
	n := m.N()
	s.m, s.n, s.k = m, n, len(seeds)
	s.medoids = append(s.medoids[:0], seeds...)
	if len(s.medoidRows) < s.k { // keep the rows a smaller k grew
		s.medoidRows = append(s.medoidRows, make([][]float64, s.k-len(s.medoidRows))...)
	}
	s.isMedoid = grow(s.isMedoid, n)
	clear(s.isMedoid)
	s.n1, s.n2 = grow(s.n1, n), grow(s.n2, n)
	s.dn, s.ds = grow(s.dn, n), grow(s.ds, n)
	s.loss = grow(s.loss, s.k)
	for slot, med := range s.medoids {
		s.isMedoid[med] = true
		s.medoidRows[slot] = grow(s.medoidRows[slot], n)
		m.RowInto(med, s.medoidRows[slot])
	}
	r.fanOut(stepReassign, n, rangeWorkers(n))
	s.refresh()
}

// reassign recomputes object j's nearest and second-nearest medoid with a
// full O(k) scan — the fallback when an incremental update is impossible.
//
//blaeu:hot
func (s *swapState) reassign(j int) {
	d1, d2 := math.Inf(1), math.Inf(1)
	i1, i2 := -1, -1
	for slot, row := range s.medoidRows[:s.k] {
		d := row[j]
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
	s.m.RowInto(c, row)
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

// applySwap installs candidate c and its row in the given medoid slot
// and repairs the nearest/second bookkeeping incrementally from that
// row: most objects need O(1) work, only those whose nearest or second
// was the replaced medoid fall back to an O(k) rescan. Classic PAM
// instead re-ran a full O(n·k) assignment after every swap.
func (r *pamRun) applySwap(slot, c int) {
	s := &r.swapState
	s.isMedoid[s.medoids[slot]] = false
	s.isMedoid[c] = true
	s.medoids[slot] = c
	s.m.RowInto(c, s.medoidRows[slot])
	r.applySlot = slot
	r.fanOut(stepApply, s.n, rangeWorkers(s.n))
	s.refresh()
}

// applyChunk is applySwap's repair of objects [lo, hi) from the row of
// the medoid installed in slot r.applySlot.
//
//blaeu:hot
func (r *pamRun) applyChunk(lo, hi int) {
	s, slot := &r.swapState, r.applySlot
	row := s.medoidRows[slot]
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
}

// evalChunk is worker w's share of one block's evaluation: candidates
// [lo, hi) of r.cands, each scored into its verdict with the worker's
// own removal-loss and row buffers.
//
//blaeu:hot
func (r *pamRun) evalChunk(w, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		r.verdicts[bi].delta, r.verdicts[bi].slot = r.evalCandidate(r.cands[bi], r.losses[w], r.rows[w])
	}
}

// swap runs the eager removal-loss SWAP phase over m from the seed
// medoids (which it copies, not mutates), in r's storage.
// Preconditions (1 < k < n) are the caller's responsibility.
func (r *pamRun) swap(m *DistMatrix, seeds []int) {
	n := m.N()
	r.sizeRows(n)
	s := &r.swapState
	r.reset(m, seeds)
	r.cands = grow(r.cands, swapBlock)[:0]
	r.verdicts = grow(r.verdicts, swapBlock)
	// Per-worker removal-loss scratch, kept like the rows: the SWAP loop
	// evaluates blocks constantly and per-block buffers would be pure GC
	// churn on its hottest path.
	blockWorkers := min(len(r.rows), swapBlock)
	r.losses = grow(r.losses, blockWorkers)
	for w := range r.losses {
		r.losses[w] = grow(r.losses[w], s.k)
	}

	for pass := 0; pass < maxSwapIters; pass++ {
		improved := false
		for start := 0; start < n; start += swapBlock {
			end := min(start+swapBlock, n)
			cands := r.cands[:0]
			for c := start; c < end; c++ {
				if !s.isMedoid[c] {
					cands = append(cands, c)
				}
			}
			r.cands = cands
			if len(cands) == 0 {
				continue
			}
			// Each candidate costs O(n), so parallelism pays off even for
			// a partial block once n is long enough — which rangeWorkers
			// decided when rows was sized.
			r.fanOut(stepEval, len(cands), min(blockWorkers, len(cands)))
			out, best := r.verdicts, -1
			for bi := range cands {
				// The textbook loop's numeric guard, so FP noise never causes
				// swap cycles; ties keep the lowest candidate index.
				if out[bi].delta < -1e-12 && (best < 0 || out[bi].delta < out[best].delta) {
					best = bi
				}
			}
			if best >= 0 {
				r.applySwap(out[best].slot, cands[best])
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// The run keeps its buffers, not the matrix: a kept scratch must
	// not hold a caller's matrix alive.
	s.m = nil
}
