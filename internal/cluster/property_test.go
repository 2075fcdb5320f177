package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// TestPAMInvariantsProperty checks structural invariants of PAM on random
// small datasets: labels in range, medoids distinct and self-labeled,
// cost equals the sum of nearest-medoid distances, and no single
// medoid/non-medoid swap improves the cost (local optimality).
func TestPAMInvariantsProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(28)
		k := 2 + int(kRaw)%3
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		c, err := PAM(m, k)
		if err != nil {
			return false
		}
		// Medoids distinct, self-labeled.
		seen := map[int]bool{}
		for mi, md := range c.Medoids {
			if md < 0 || md >= n || seen[md] || c.Labels[md] != mi {
				return false
			}
			seen[md] = true
		}
		// Labels in range, cost consistent.
		cost := 0.0
		for i, l := range c.Labels {
			if l < 0 || l >= k {
				return false
			}
			cost += m.Dist(i, c.Medoids[l])
		}
		if diff := cost - c.Cost; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		// Each object assigned to its nearest medoid.
		for i := range vecs {
			for _, md := range c.Medoids {
				if m.Dist(i, md) < m.Dist(i, c.Medoids[c.Labels[i]])-1e-12 {
					return false
				}
			}
		}
		// Local optimality: no single swap lowers the total cost.
		for mi := range c.Medoids {
			for h := 0; h < n; h++ {
				if seen[h] {
					continue
				}
				trial := append([]int(nil), c.Medoids...)
				trial[mi] = h
				_, swapCost := AssignToMedoids(m, trial)
				if swapCost < c.Cost-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCLARACostConsistencyProperty: CLARA's reported cost must equal the
// recomputed assignment cost of its medoids, and labels must point at the
// nearest medoid.
func TestCLARACostConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(300)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		o := NewLazyOracle(vecs, stats.Euclidean{})
		c, err := CLARA(o, 3, CLARAOptions{SampleSize: 60, Rand: rng})
		if err != nil {
			return false
		}
		labels, cost := AssignToMedoids(o, c.Medoids)
		if diff := cost - c.Cost; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		for i := range labels {
			// Same-cost ties may break either way; compare distances.
			a := o.Dist(i, c.Medoids[labels[i]])
			b := o.Dist(i, c.Medoids[c.Labels[i]])
			if a < b-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSilhouetteInvarianceProperty: the silhouette is invariant under
// relabeling (permuting cluster IDs).
func TestSilhouetteInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		vecs := make([][]float64, n)
		labels := make([]int, n)
		for i := range vecs {
			vecs[i] = []float64{rng.Float64() * 5, rng.Float64() * 5}
			labels[i] = rng.Intn(3)
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		s1 := Silhouette(m, labels, 3)
		perm := []int{2, 0, 1}
		relabeled := make([]int, n)
		for i, l := range labels {
			relabeled[i] = perm[l]
		}
		s2 := Silhouette(m, relabeled, 3)
		diff := s1 - s2
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
