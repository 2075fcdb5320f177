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

// ClusterK clusters with a fixed k: exact PAM up to LargeThreshold
// objects, CLARA above it — the one-k case of AutoK's sweep.
func ClusterK(o Oracle, k int, opts AutoKOptions) (*Clustering, error) {
	opts.defaults()
	var out *Clustering
	err := sweepK(o, k, k, opts, func(c *Clustering) { out = c })
	return out, err
}

// sweepK clusters o once for every k in [kMin, kMax], in k order, and
// hands each clustering to visit; the context is read before every k.
// Above LargeThreshold a k is a CLARA run of its own; below it the ks
// share one BUILD to kMax and one row scratch, each k's SWAP starting
// from seeds[:k] (the package comment says why), and the ks BUILD's
// prefix does not serve — 1, and k >= n — are plain PAM runs.
func sweepK(o Oracle, kMin, kMax int, opts AutoKOptions, visit func(*Clustering)) error {
	n := o.N()
	run := func(k int) (*Clustering, error) { return PAM(o, k) }
	switch {
	case n > opts.LargeThreshold:
		co := opts.CLARA
		co.Rand = opts.Rand
		if co.Context == nil {
			co.Context = opts.Context
		}
		run = func(k int) (*Clustering, error) { return CLARA(o, k, co) }
	case kMin > 1 && kMax < n:
		if err := ctxErr(opts.Context); err != nil {
			return err
		}
		rows := newRowScratch(n)
		seeds := pamBuild(o, kMax, rows)
		run = func(k int) (*Clustering, error) { return fasterPAMFrom(o, k, seeds[:k], rows) }
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
// scorer's per-cluster means too (ClusterSilhouettes).
func AutoK(o Oracle, opts AutoKOptions) (*Clustering, error) {
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
		labels := make([]int, n)
		return &Clustering{K: 1, Labels: labels, Medoids: []int{0}, Silhouette: 0}, nil
	}

	var best *Clustering
	done := 0
	err := sweepK(o, opts.KMin, kMax, opts, func(c *Clustering) {
		if n > opts.MCSilhouetteThreshold {
			c.Silhouette = MCSilhouette(o, c.Labels, c.K, MCSilhouetteOptions{Rand: opts.Rand})
		} else {
			c.Silhouette, c.ClusterSilhouettes = silhouettes(o, c.Labels, c.K)
		}
		if best == nil || c.Silhouette > best.Silhouette {
			best = c
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
