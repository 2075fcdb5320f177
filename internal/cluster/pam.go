package cluster

import (
	"fmt"
	"math"
)

// Clustering is the result of a partitional clustering run.
type Clustering struct {
	// K is the effective number of clusters. It can be lower than the
	// requested k when the data has too few objects (see PAM).
	K int
	// Labels assigns each object to a cluster in [0,K).
	Labels []int
	// Medoids holds the index of the most central object of each cluster
	// (k-medoid algorithms only; empty for k-means).
	Medoids []int
	// Cost is the total dissimilarity between objects and their medoid
	// (or centroid), the objective PAM minimizes.
	Cost float64
	// Silhouette is the average silhouette width if it was computed
	// (NaN otherwise).
	Silhouette float64
	// ClusterSilhouettes is the mean silhouette width of each cluster —
	// what SilhouettePerCluster returns — when the pass that computed
	// Silhouette produced it too (AutoK's exact scorer); nil otherwise.
	ClusterSilhouettes []float64
}

// Sizes returns the number of objects per cluster.
func (c *Clustering) Sizes() []int {
	out := make([]int, c.K)
	for _, l := range c.Labels {
		if l >= 0 && l < c.K {
			out[l]++
		}
	}
	return out
}

// maxSwapIters bounds PAM's SWAP phase; Kaufman & Rousseeuw's algorithm
// converges quickly in practice, this is a safety net.
const maxSwapIters = 100

// checkPAMArgs validates common PAM preconditions and, when k >= n,
// returns the degenerate clustering every k-medoid variant shares.
func checkPAMArgs(o Oracle, k int) (*Clustering, error) {
	n := o.N()
	if k <= 0 {
		return nil, fmt.Errorf("cluster: PAM needs k >= 1, got %d", k)
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: PAM on empty data")
	}
	if k >= n {
		// Fewer objects than requested clusters: every object becomes its
		// own medoid, so the effective K is n (callers observe K, not the
		// requested k) and the cost — each object sits on its medoid — is
		// exactly zero. Set it explicitly so the field is always meaningful.
		labels := make([]int, n)
		medoids := make([]int, n)
		for i := range labels {
			labels[i] = i
			medoids[i] = i
		}
		return &Clustering{K: n, Labels: labels, Medoids: medoids, Cost: 0, Silhouette: math.NaN()}, nil
	}
	return nil, nil
}

// PAM runs Partitioning Around Medoids on the oracle: BUILD greedily
// seeds k medoids, then the eager removal-loss SWAP of FasterPAM
// (Schubert & Rousseeuw 2021) makes repeated passes over the non-medoids,
// scoring each candidate against all k medoids at once and applying the
// best improving swap of every block immediately instead of waiting for
// the pass to finish, as the classic steepest-descent loop does. It
// converges when a complete pass yields no improving swap — a local
// optimum of exactly the swap neighborhood PAMClassic uses.
//
// PAM is the paper's clustering algorithm of choice for both theme
// detection (on the dependency graph) and map construction (§3), because
// it is "accurate, well established and fast enough" and, unlike k-means,
// needs only pairwise dissimilarities (so it copes with mixed data).
func PAM(o Oracle, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(o, k); c != nil || err != nil {
		return c, err
	}
	rows := newRowScratch(o.N())
	if k == 1 {
		// BUILD's first medoid is already the global optimum for k=1 (it
		// minimizes the total distance), so SWAP has nothing to do.
		medoids := pamBuild(o, 1, rows)
		labels, cost := AssignToMedoids(o, medoids)
		return &Clustering{K: 1, Labels: labels, Medoids: medoids, Cost: cost, Silhouette: math.NaN()}, nil
	}
	return fasterPAMFrom(o, k, pamBuild(o, k, rows), rows)
}

// PAMClassic is the textbook PAM of Kaufman & Rousseeuw (1990): a BUILD
// phase greedily seeds k medoids, then a SWAP phase repeatedly exchanges
// the single best (medoid, candidate) pair whenever that lowers the total
// dissimilarity, until no improving swap exists. Each SWAP iteration costs
// O(k·n²). It is the reference implementation only: the differential
// tests of PAM and the e5 experiment call it directly, and no option
// reaches it.
func PAMClassic(o Oracle, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(o, k); c != nil || err != nil {
		return c, err
	}
	return pamClassicFrom(o, k, pamBuild(o, k, newRowScratch(o.N())))
}

// pamClassicFrom runs the textbook SWAP loop from the given seed medoids
// (which it copies, not mutates). Preconditions (1 <= k < n) are the
// caller's responsibility.
func pamClassicFrom(o Oracle, k int, seeds []int) (*Clustering, error) {
	n := o.N()

	medoids := append([]int(nil), seeds...)
	// nearest[i] = distance to closest medoid, second[i] = to 2nd closest.
	nearest := make([]float64, n)
	second := make([]float64, n)
	labels := make([]int, n)
	assign := func() float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			d1, d2, l := math.Inf(1), math.Inf(1), -1
			for mi, m := range medoids {
				d := o.Dist(i, m)
				if d < d1 {
					d2 = d1
					d1 = d
					l = mi
				} else if d < d2 {
					d2 = d
				}
			}
			nearest[i], second[i], labels[i] = d1, d2, l
			total += d1
		}
		return total
	}
	cost := assign()

	isMedoid := make([]bool, n)
	for _, m := range medoids {
		isMedoid[m] = true
	}

	for iter := 0; iter < maxSwapIters; iter++ {
		bestDelta := 0.0
		bestM, bestH := -1, -1
		for mi := range medoids {
			for h := 0; h < n; h++ {
				if isMedoid[h] {
					continue
				}
				// Cost change of swapping medoid mi with candidate h
				// (standard PAM T_mh computation).
				delta := 0.0
				for j := 0; j < n; j++ {
					if j == h {
						delta -= nearest[j] // h becomes a medoid: cost 0
						continue
					}
					djh := o.Dist(j, h)
					if labels[j] == mi {
						// j loses its medoid m; moves to h or to its
						// second-best medoid.
						delta += math.Min(djh, second[j]) - nearest[j]
					} else if djh < nearest[j] {
						// j defects to the new medoid h.
						delta += djh - nearest[j]
					}
				}
				if delta < bestDelta-1e-12 {
					bestDelta, bestM, bestH = delta, mi, h
				}
			}
		}
		if bestM < 0 {
			break // no improving swap: local optimum
		}
		isMedoid[medoids[bestM]] = false
		isMedoid[bestH] = true
		medoids[bestM] = bestH
		cost = assign()
	}

	return &Clustering{K: k, Labels: labels, Medoids: medoids, Cost: cost, Silhouette: math.NaN()}, nil
}

// AssignToMedoids labels every object of the oracle with its nearest
// medoid (by position in the medoids slice) and returns labels plus the
// total cost. Used by CLARA to extend a sample clustering to the full set.
func AssignToMedoids(o Oracle, medoids []int) ([]int, float64) {
	n := o.N()
	labels := make([]int, n)
	total := 0.0
	for i := 0; i < n; i++ {
		dBest, l := math.Inf(1), -1
		for mi, m := range medoids {
			if d := o.Dist(i, m); d < dBest {
				dBest, l = d, mi
			}
		}
		labels[i] = l
		total += dBest
	}
	return labels, total
}
