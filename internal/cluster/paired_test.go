package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// nearTieVecs returns n points in four round blobs of unit spread: two
// far apart and two, sub apart, that may be read as one cluster or two.
// Near sub = 5.3 the exact silhouettes of PAM's k = 3 and k = 4 tie.
func nearTieVecs(n int, sub float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {12, 0}, {6, 10}, {6 + sub, 10}}
	vecs := make([][]float64, n)
	for i := range vecs {
		c := centers[i%len(centers)]
		vecs[i] = []float64{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
	}
	return vecs
}

// TestPairedKChoiceIsSteadier is the case for drawing once per sweep
// (common random numbers): over one fixed input whose k = 3 and k = 4
// nearly tie, a sweep that clusters and scores every k on the same
// draws picks the k most seeds pick more often than the per-k-draw
// scoring it replaced (perKDrawReference), where each k's CLARA samples
// and Monte-Carlo rounds are its own and "k = 3 beats k = 4" is decided
// partly by which rounds each k drew. Two separations just past the tie
// are measured, over 40 seeds each, on core's crossover and k range.
func TestPairedKChoiceIsSteadier(t *testing.T) {
	const n, seeds = 1500, 40
	paired, unpaired := 0, 0
	for _, sub := range []float64{5.35, 5.5} {
		o := NewLazyOracle(nearTieVecs(n, sub, 1), stats.Euclidean{})
		opts := func(seed int64) AutoKOptions {
			return AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: DefaultPAMThreshold,
				Rand: rand.New(rand.NewSource(seed))}
		}
		shared, perK := map[int]int{}, map[int]int{}
		for seed := int64(1); seed <= seeds; seed++ {
			c, err := AutoK(o, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			shared[c.K]++
			r, err := perKDrawReference(o, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			perK[r.K]++
		}
		t.Logf("sub=%v: k chosen by seed count, shared draws %v, per-k draws %v", sub, shared, perK)
		paired += modeCount(shared)
		unpaired += modeCount(perK)
	}
	if paired <= unpaired {
		t.Errorf("shared draws picked their modal k on %d seeds, per-k draws on %d; want more", paired, unpaired)
	}
}

// modeCount is the largest count in counts.
func modeCount(counts map[int]int) int {
	best := 0
	for _, c := range counts {
		best = max(best, c)
	}
	return best
}
