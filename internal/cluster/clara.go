package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cores"
	"repro/internal/store"
)

// CLARAOptions tunes the CLARA run.
type CLARAOptions struct {
	// Samples is the number of random sub-samples to cluster
	// (Kaufman & Rousseeuw recommend 5).
	Samples int
	// SampleSize is the size of each sub-sample. Kaufman & Rousseeuw's
	// classic heuristic is 40 + 2k; the default is twice that (80 + 4k)
	// because the eager SWAP made the per-sample runs cheap enough to
	// afford the quality gain of larger samples.
	SampleSize int
	// Parallelism is ignored; removed with ROADMAP 8(f).
	Parallelism int
	// Context cancels the run at per-sample granularity; nil never
	// cancels.
	Context context.Context
	// Rand is the randomness source (required).
	Rand *rand.Rand
}

func (o *CLARAOptions) defaults(k int) {
	if o.Samples <= 0 {
		o.Samples = 5
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 80 + 4*k
	}
}

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
// samples — the price of a deterministic fan-out; multi-sample runs
// still never lose to single-sample ones, because sample 0 is always
// among the candidates.
func CLARA(o Oracle, k int, opts CLARAOptions) (*Clustering, error) {
	n := o.N()
	if opts.Rand == nil {
		return nil, fmt.Errorf("cluster: CLARA requires a random source")
	}
	opts.defaults(k)
	if err := ctxErr(opts.Context); err != nil {
		return nil, err
	}
	if n <= opts.SampleSize || n <= k {
		return PAM(o, k)
	}

	// Draw every sample up front, in sample order, so the runs below are
	// independent of execution order and of each other.
	type sampleRun struct {
		idx     []int
		medoids []int
		labels  []int
		cost    float64
		err     error
	}
	runs := make([]*sampleRun, opts.Samples)
	for s := range runs {
		runs[s] = &sampleRun{
			idx:  store.SampleIndices(n, opts.SampleSize, opts.Rand),
			cost: math.Inf(1),
		}
		// Seeds nothing — BUILD is deterministic — but every later draw
		// from the shared Rand (the next sample, Monte-Carlo silhouettes,
		// the next k) sits one position further for it, and the pinned
		// navigation digests are CLARA builds. It goes with the first
		// change that re-pins them (ROADMAP item 4(d)).
		opts.Rand.Int63()
	}

	cores.Run(len(runs), func(s int) {
		r := runs[s]
		if r.err = ctxErr(opts.Context); r.err != nil {
			return
		}
		c, err := PAM(o.Subset(r.idx), k)
		if err != nil {
			r.err = err
			return
		}
		r.medoids = make([]int, len(c.Medoids))
		for i, m := range c.Medoids {
			r.medoids[i] = r.idx[m]
		}
		// Extend the sample clustering to the full dataset — the
		// expensive O(n·k) half of a sample's work, also parallelized
		// by the fan-out.
		r.labels, r.cost = AssignToMedoids(o, r.medoids)
	})

	var best *sampleRun
	for _, r := range runs {
		if r.err != nil {
			// First error in sample order wins, so failures are as
			// deterministic as results.
			return nil, r.err
		}
		if best == nil || r.cost < best.cost {
			best = r
		}
	}
	return &Clustering{K: k, Labels: best.labels, Medoids: best.medoids, Cost: best.cost, Silhouette: math.NaN()}, nil
}
