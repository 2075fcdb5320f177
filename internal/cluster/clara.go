package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cores"
	"repro/internal/store"
)

// CLARAOptions tunes the CLARA run.
type CLARAOptions struct {
	// Parallelism is ignored; removed with ROADMAP 8(f).
	Parallelism int
	// Context cancels the run at per-sample granularity; nil never
	// cancels.
	Context context.Context
	// Rand is the randomness source (required).
	Rand *rand.Rand
}

// claraSamples is the number of random sub-samples CLARA clusters
// (Kaufman & Rousseeuw recommend 5).
const claraSamples = 5

// claraSampleSize is the size of each sub-sample for k clusters. Kaufman
// & Rousseeuw's classic heuristic is 40 + 2k; this is twice that because
// the eager SWAP made the per-sample runs cheap enough to afford the
// quality gain of larger samples.
func claraSampleSize(k int) int { return 80 + 4*k }

// ctxErr reports the context's cancellation error, tolerating nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// CLARA is the sampling-based variant of PAM for large data (Kaufman &
// Rousseeuw 1990): it draws several random sub-samples, runs PAM on each,
// extends each sample's medoids to the full dataset, and keeps the
// medoid set with the lowest full-data cost. Blaeu switches to CLARA
// "when the data is too large" (paper §3) to keep map construction
// interactive.
//
// The per-sample runs are embarrassingly parallel and fan out through
// cores.Run over whatever cores are free. Results are exactly the same
// however many run at once: each sample's row set is drawn from
// Rand up front in sample order, every sample is clustered
// independently, and the winner is chosen by lowest full-data cost with
// ties broken toward the earliest sample. This independence
// drops the textbook carry-over of the current best medoids into later
// samples — the price of a deterministic fan-out; the winner still never
// loses to the first sample alone, which is always among the candidates.
// CLARA is one k's run; AutoK's sweep draws its samples once for every
// k (see the package comment).
func CLARA(o Oracle, k int, opts CLARAOptions) (*Clustering, error) {
	if opts.Rand == nil {
		return nil, fmt.Errorf("cluster: CLARA requires a random source")
	}
	if err := ctxErr(opts.Context); err != nil {
		return nil, err
	}
	s := new(Scratch)
	if size := claraSampleSize(k); o.N() > size {
		s.drawSamples(o.N(), size, opts.Rand)
		s.fill(o, claraSamples, 0)
	}
	return s.clara(o, k, opts.Context)
}

// claraSample is one CLARA sample's slot in a Scratch: its ids in the
// order drawn, the bitmap they were drawn through, its matrix's storage
// and the leading block of it one k reads, its PAM run, that run's
// medoids as ids of the full set with their full-data cost and labels,
// and assignInto's buffers. Only the sample's own task writes it.
type claraSample struct {
	ids     []int
	taken   []uint64
	sub     subsetStore
	lead    DistMatrix
	run     pamRun
	medoids []int
	cost    float64
	labels  []int
	err     error
	row     []float64
	best    []float64
}

// drawSamples draws CLARA's sample ids from rng, in sample order, each
// min(size, n) of n objects in a uniformly random order — a uniform
// sample, then a shuffle of it; fill fills their matrices over the ids
// in that order. Every k whose sample size is below n clusters the
// leading claraSampleSize(k) objects of each sample, themselves a
// uniform sample, so size is the largest k's.
func (s *Scratch) drawSamples(n, size int, rng *rand.Rand) {
	for i := range s.samples {
		sm := &s.samples[i]
		sm.ids, sm.taken = store.SampleIndicesInto(n, min(size, n), rng, sm.ids, sm.taken)
		ids := sm.ids
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	}
}

// claraTask is the state CLARA's per-sample fan-out reads: the oracle,
// the k clustered and the context of one k's fan-out, the task its
// batch calls, bound once per scratch, and the batch, so that no k's
// fan-out allocates.
type claraTask struct {
	o     Oracle
	k     int
	ctx   context.Context
	run   func(i int)
	batch cores.Batch
}

// runSample is sample i's task of CLARA's fan-out: PAM on the leading
// block of its matrix, in its slot, and the cost and labels of its
// medoids over the full set.
func (s *Scratch) runSample(i int) {
	t, sm := &s.claraTask, &s.samples[i]
	sm.cost = math.Inf(1)
	if sm.err = ctxErr(t.ctx); sm.err != nil {
		return
	}
	sub := sm.sub.matrix.lead(claraSampleSize(t.k), &sm.lead)
	if _, sm.err = checkPAMArgs(sub, t.k); sm.err == nil {
		sm.err = sm.run.pam(sub, t.k)
	}
	if sm.err != nil {
		return
	}
	sm.medoids = grow(sm.medoids, len(sm.run.medoids))
	for j, m := range sm.run.medoids {
		sm.medoids[j] = sm.ids[m]
	}
	// Cost and label the sample's medoids over the full dataset — the
	// expensive O(n·k) half of a sample's work, also parallelized by the
	// fan-out. The winner's labels are kept (see clara).
	n := t.o.N()
	sm.row, sm.best, sm.labels = grow(sm.row, n), grow(sm.best, n), grow(sm.labels, n)
	sm.cost = assignInto(t.o, sm.medoids, sm.labels, sm.row, sm.best)
}

// clara is CLARA in s for k clusters over the samples drawSamples drew
// and fill filled: each sample's PAM on the leading block of its matrix,
// in its slot, the winner's labels in the current k's buffer. At most
// claraSampleSize(k) objects is PAM on o's matrix itself.
func (s *Scratch) clara(o Oracle, k int, ctx context.Context) (*Clustering, error) {
	n := o.N()
	size := claraSampleSize(k)
	if n <= size || n <= k {
		return s.pam(s.exact(o), k)
	}
	// The fan-out reads its task state off the scratch, cleared after it
	// so that a kept scratch holds no caller's oracle or context.
	t := &s.claraTask
	t.o, t.k, t.ctx = o, k, ctx
	if t.run == nil {
		t.run = s.runSample
	}
	t.batch.Run(len(s.samples), t.run)
	t.o, t.ctx = nil, nil

	var best *claraSample
	for i := range s.samples {
		sm := &s.samples[i]
		if sm.err != nil {
			// First error in sample order wins, so failures are as
			// deterministic as results.
			return nil, sm.err
		}
		if best == nil || sm.cost < best.cost {
			best = sm
		}
	}
	labels := s.labels(n)
	copy(labels, best.labels)
	return &Clustering{K: k, Labels: labels, Medoids: slices.Clone(best.medoids), Cost: best.cost, Silhouette: math.NaN()}, nil
}
