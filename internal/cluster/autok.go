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
	// Seeding selects how PAM picks its initial medoids (default
	// SeedingAuto), for both direct runs and CLARA's per-sample runs.
	Seeding Seeding
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
// objects, CLARA above it.
func ClusterK(o Oracle, k int, opts AutoKOptions) (*Clustering, error) {
	opts.defaults()
	if o.N() <= opts.LargeThreshold {
		return PAMRun(o, k, PAMOptions{Seeding: opts.Seeding, Rand: opts.Rand})
	}
	co := opts.CLARA
	co.Rand = opts.Rand
	co.Seeding = opts.Seeding
	if co.Context == nil {
		co.Context = opts.Context
	}
	return CLARA(o, k, co)
}

// AutoK clusters the oracle for every k in [KMin, KMax], scores each
// partitioning with the (possibly Monte-Carlo) silhouette, and returns the
// clustering with the best score — the model-selection scheme of paper §3:
// "we generate several partitionings with different numbers of clusters,
// and keep the one with the best score."
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
	for k := opts.KMin; k <= kMax; k++ {
		if err := ctxErr(opts.Context); err != nil {
			return nil, err
		}
		c, err := ClusterK(o, k, opts)
		if err != nil {
			return nil, err
		}
		var sil float64
		if n > opts.MCSilhouetteThreshold {
			sil = MCSilhouette(o, c.Labels, c.K, MCSilhouetteOptions{Rand: opts.Rand})
		} else {
			sil = Silhouette(o, c.Labels, c.K)
		}
		c.Silhouette = sil
		if best == nil || sil > best.Silhouette {
			best = c
		}
		if opts.Progress != nil {
			opts.Progress(k-opts.KMin+1, kMax-opts.KMin+1)
		}
	}
	if best == nil || math.IsNaN(best.Silhouette) {
		return nil, fmt.Errorf("cluster: AutoK found no valid clustering")
	}
	return best, nil
}
