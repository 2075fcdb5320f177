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
	// LargeThreshold is the object count above which clustering switches
	// from exact PAM to CLARA (default 2000).
	LargeThreshold int
	// CLARA tunes the CLARA runs (Rand is shared with silhouettes).
	CLARA CLARAOptions
	// MCSilhouette switches silhouette scoring to the Monte-Carlo
	// estimator above this object count (default 2000; 0 keeps default).
	MCSilhouetteThreshold int
	// Context cancels the model-selection sweep between candidate k
	// values and is forwarded to CLARA's per-sample runs; nil never
	// cancels.
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
	if o.LargeThreshold <= 0 {
		o.LargeThreshold = 2000
	}
	if o.MCSilhouetteThreshold <= 0 {
		o.MCSilhouetteThreshold = 2000
	}
}

// sweepK clusters o once for every k in [kMin, kMax], 2 <= kMin <= kMax <
// n, in k order, and hands each clustering to visit; the context is read
// before every k. Above LargeThreshold a k is a CLARA run of its own;
// below it the ks share one BUILD to kMax and the scratch's one run, each
// k's SWAP starting from seeds[:k] (the package comment says why).
func (s *Scratch) sweepK(o Oracle, kMin, kMax int, opts AutoKOptions, visit func(*Clustering)) error {
	n := o.N()
	var run func(k int) (*Clustering, error)
	if n > opts.LargeThreshold {
		co := opts.CLARA
		co.Rand = opts.Rand
		if co.Context == nil {
			co.Context = opts.Context
		}
		run = func(k int) (*Clustering, error) { return s.clara(o, k, co) }
	} else {
		if err := ctxErr(opts.Context); err != nil {
			return err
		}
		seeds, err := s.run.build(o, kMax)
		if err != nil {
			return err
		}
		run = func(k int) (*Clustering, error) {
			s.run.swap(o, seeds[:k])
			return s.result(k), nil
		}
	}
	for k := kMin; k <= kMax; k++ {
		if err := ctxErr(opts.Context); err != nil {
			return err
		}
		c, err := run(k)
		if err != nil {
			return err
		}
		visit(c)
	}
	return nil
}

// AutoK clusters the oracle for every k in [KMin, KMax], scores each
// partitioning with the (possibly Monte-Carlo) silhouette, and returns the
// clustering with the best score — the model-selection scheme of paper §3:
// "we generate several partitionings with different numbers of clusters,
// and keep the one with the best score." The winner carries the exact
// scorer's per-cluster means too (ClusterSilhouettes). It sweeps in a
// Scratch of its own.
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

	var best *Clustering
	done := 0
	err := s.sweepK(o, opts.KMin, kMax, opts, func(c *Clustering) {
		if n > opts.MCSilhouetteThreshold {
			c.Silhouette = s.mcSilhouette(o, c.Labels, c.K, opts.Rand)
		} else {
			c.ClusterSilhouettes = s.perCluster(c.K)
			c.Silhouette = s.sil.silhouettes(o, c.Labels, c.K, c.ClusterSilhouettes)
		}
		if best == nil || c.Silhouette > best.Silhouette {
			// c keeps its buffers; the next k takes the other pair.
			best = c
			s.cur ^= 1
		}
		if done++; opts.Progress != nil {
			opts.Progress(done, kMax-opts.KMin+1)
		}
	})
	if err != nil {
		return nil, err
	}
	if best == nil || math.IsNaN(best.Silhouette) {
		return nil, fmt.Errorf("cluster: AutoK found no valid clustering")
	}
	return best, nil
}
