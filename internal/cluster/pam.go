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
	// ClusterSilhouettes is the mean silhouette width of each cluster,
	// from the pass that computed Silhouette: on AutoK's winner, what
	// SilhouettePerCluster returns under the exact scorer, the
	// Monte-Carlo rounds' means under that one (see AutoK); nil where
	// no silhouette was computed.
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

// maxSwapIters bounds PAM's SWAP passes; the eager SWAP converges
// quickly in practice, this is a safety net.
const maxSwapIters = 100

// checkPAMArgs validates common PAM preconditions and, when k >= n,
// returns the degenerate clustering every k-medoid variant shares.
func checkPAMArgs(m *DistMatrix, k int) (*Clustering, error) {
	n := m.N()
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

// PAM runs Partitioning Around Medoids on the matrix: BUILD greedily
// seeds k medoids, then the eager removal-loss SWAP of FasterPAM
// (Schubert & Rousseeuw 2021) makes repeated passes over the non-medoids,
// scoring each candidate against all k medoids at once and applying the
// best improving swap of every block immediately instead of waiting for
// the pass to finish, as the textbook steepest-descent loop of Kaufman &
// Rousseeuw does. It converges when a complete pass yields no improving
// swap — a local optimum of exactly the textbook loop's swap
// neighborhood, which the differential tests keep as PAM's reference.
//
// PAM is the paper's clustering algorithm of choice for both theme
// detection (on the dependency graph) and map construction (§3), because
// it is "accurate, well established and fast enough" and, unlike k-means,
// needs only pairwise dissimilarities (so it copes with mixed data).
func PAM(m *DistMatrix, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(m, k); c != nil || err != nil {
		return c, err
	}
	r := new(pamRun)
	if err := r.pam(m, k); err != nil {
		return nil, err
	}
	return &Clustering{K: k, Labels: r.n1, Medoids: r.medoids, Cost: r.cost, Silhouette: math.NaN()}, nil
}

// pam is PAM over m, 1 <= k < n, in r's storage: the medoids are left
// in r.medoids, the labels in r.n1 and the cost in r.cost.
func (r *pamRun) pam(m *DistMatrix, k int) error {
	seeds, err := r.build(m, k)
	if err != nil {
		return err
	}
	if k == 1 {
		// BUILD's first medoid is already the global optimum for k=1 (it
		// minimizes the total distance), so SWAP has nothing to do. Its
		// row sum is finite, so BUILD's nearest is that row: every label
		// is 0 and the cost is its sum in object order, as assignInto's.
		r.medoids = append(r.medoids[:0], seeds...)
		r.n1 = grow(r.n1, m.N())
		clear(r.n1)
		r.cost = 0
		for _, d := range r.nearest {
			r.cost += d
		}
		return nil
	}
	r.swap(m, seeds)
	return nil
}

// assignInto labels every object with its nearest medoid (by position in
// medoids; ties to the earliest, −1 at cost +Inf with none below +Inf)
// and returns the total cost, summed in object order: CLARA's extension
// of a sample's medoids to the full set. It reads one medoid row at a
// time into row, keeping each object's running minimum in best (all
// three n-sized).
//
//blaeu:hot
func assignInto(o Oracle, medoids, labels []int, row, best []float64) float64 {
	for j := range best {
		best[j] = math.Inf(1)
	}
	for j := range labels {
		labels[j] = -1
	}
	for mi, m := range medoids {
		o.RowInto(m, row)
		for j, d := range row {
			if d < best[j] {
				best[j] = d
				labels[j] = mi
			}
		}
	}
	total := 0.0
	for _, d := range best {
		total += d
	}
	return total
}
