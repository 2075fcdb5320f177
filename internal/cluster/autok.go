package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// AutoKOptions tunes automatic model selection.
type AutoKOptions struct {
	// KMin and KMax bound the candidate numbers of clusters
	// (defaults 2 and 8).
	KMin, KMax int
	// LargeThreshold is the sweep's one crossover: the object count
	// above which clustering switches from exact PAM over a matrix to
	// CLARA, and silhouettes past mcSampleSize objects to the
	// Monte-Carlo estimator; 0 keeps every sweep exact.
	LargeThreshold int
	// CLARA is ignored: CLARA's runs take Rand and Context from these
	// options. Removed with ROADMAP 8(f).
	CLARA CLARAOptions
	// MCSilhouetteThreshold is ignored: LargeThreshold decides the
	// scorer too. Removed with ROADMAP 8(f).
	MCSilhouetteThreshold int
	// Context cancels the model-selection sweep between candidate k
	// values and CLARA's per-sample runs; nil never cancels.
	Context context.Context
	// Progress, when set, is called after each scored candidate k with
	// (done, total) counts — the hook asynchronous map builds report
	// their progress fractions through.
	Progress func(done, total int)
	// Rand is the randomness source (required).
	Rand *rand.Rand
}

func (o *AutoKOptions) defaults() {
	if o.KMin < 2 {
		o.KMin = 2
	}
	if o.KMax < o.KMin {
		o.KMax = o.KMin + 6
	}
}

// above reports whether n objects are past threshold, where 0 is no
// threshold.
func above(n, threshold int) bool { return threshold > 0 && n > threshold }

// AutoK clusters the oracle for every k in [KMin, KMax], scores each
// partitioning with the (possibly Monte-Carlo) silhouette, and returns the
// clustering with the best score — the model-selection scheme of paper §3:
// "we generate several partitionings with different numbers of clusters,
// and keep the one with the best score." Every k is clustered and scored
// on the same draws — CLARA's samples and the Monte-Carlo rounds, each
// drawn once, in that order, before the first k — so the ks are compared
// paired. The winner carries its per-cluster means (ClusterSilhouettes):
// the exact scorer's, or the Monte-Carlo rounds', with a cluster whose
// widths the rounds measure too rarely scored exactly over its own rows.
// It sweeps in a Scratch of its own.
func AutoK(o Oracle, opts AutoKOptions) (*Clustering, error) {
	return new(Scratch).AutoK(o, opts)
}

// AutoK is the package's AutoK in the scratch: the winner's Labels and
// ClusterSilhouettes are the scratch's, valid until its next sweep.
func (s *Scratch) AutoK(o Oracle, opts AutoKOptions) (*Clustering, error) {
	opts.defaults()
	if opts.Rand == nil {
		return nil, fmt.Errorf("cluster: AutoK requires a random source")
	}
	n := o.N()
	if n == 0 {
		return nil, fmt.Errorf("cluster: AutoK on empty data")
	}
	kMax := opts.KMax
	if kMax >= n {
		kMax = n - 1
	}
	if kMax < opts.KMin {
		// Too few objects to split: one cluster.
		labels := s.labels(n)
		clear(labels)
		return &Clustering{K: 1, Labels: labels, Medoids: []int{0}, Silhouette: 0}, nil
	}
	if err := ctxErr(opts.Context); err != nil {
		return nil, err
	}

	// Below the crossover every k clusters one matrix — o's own, or its
	// vectors' in the scratch — sharing one BUILD to kMax and the
	// scratch's one run, each k's SWAP starting from seeds[:k] (the
	// package comment says why). Above it each k is CLARA on the sweep's
	// draws: CLARA's samples, at kMax's size, when some k reads them,
	// then the Monte-Carlo rounds, all filled in one fan-out.
	run := func(k int) (*Clustering, error) { return s.clara(o, k, opts.Context) }
	mc := above(n, opts.LargeThreshold) && n > mcSampleSize
	if above(n, opts.LargeThreshold) {
		samples, rounds := 0, 0
		if n > claraSampleSize(opts.KMin) {
			s.drawSamples(n, claraSampleSize(kMax), opts.Rand)
			samples = claraSamples
		}
		if mc {
			s.drawRounds(n, opts.Rand)
			rounds = mcRounds
		}
		s.fill(o, samples, rounds)
	} else {
		m := s.exact(o)
		seeds, err := s.run.build(m, kMax)
		if err != nil {
			return nil, err
		}
		o, run = m, func(k int) (*Clustering, error) {
			s.run.swap(m, seeds[:k])
			return s.result(k), nil
		}
	}

	var best *Clustering
	var bestCounts []int
	for k := opts.KMin; k <= kMax; k++ {
		if err := ctxErr(opts.Context); err != nil {
			return nil, err
		}
		c, err := run(k)
		if err != nil {
			return nil, err
		}
		per, counts := s.perCluster(c.K)
		if mc {
			c.Silhouette = s.mcScore(c.Labels, c.K, per, counts)
		} else {
			c.Silhouette = s.sil.silhouettes(o, c.Labels, c.K, per)
		}
		c.ClusterSilhouettes = per
		if best == nil || c.Silhouette > best.Silhouette {
			// c keeps its buffers; the next k takes the other set.
			best, bestCounts = c, counts
			s.cur ^= 1
		}
		if opts.Progress != nil {
			opts.Progress(k-opts.KMin+1, kMax-opts.KMin+1)
		}
	}
	if best == nil || math.IsNaN(best.Silhouette) {
		return nil, fmt.Errorf("cluster: AutoK found no valid clustering")
	}
	if mc {
		s.roundMeans(o, best.Labels, best.ClusterSilhouettes, bestCounts)
	}
	return best, nil
}
