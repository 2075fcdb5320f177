package cluster_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestAutoKWorkIsLinear is the cost model's linear-work law at the
// AutoK layer: above the engine's PAM threshold a sweep over core's k
// range is CLARA with Monte-Carlo silhouettes, whose sample matrices and
// rounds are sized by k alone and whose full-data assignments read k
// medoid rows each, so its distance evaluations grow linearly in n. Over
// lazy oracles at n = 2 500, 5 000 and 10 000, doubling n may at most
// multiply the count by 2.2. Every distance the sweep reads is counted
// (Oracle.DistEvals), so a quadratic pass anywhere in it breaks the law.
func TestAutoKWorkIsLinear(t *testing.T) {
	opts := core.DefaultOptions()
	evals := func(n int) int64 {
		rng := rand.New(rand.NewSource(int64(n)))
		vecs := make([][]float64, n)
		for i := range vecs {
			c := float64(rng.Intn(4)) * 5
			vecs[i] = []float64{c + rng.NormFloat64(), c - rng.NormFloat64(), rng.NormFloat64() * 2}
		}
		o := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		var sc cluster.Scratch
		if _, err := sc.AutoK(o, cluster.AutoKOptions{
			KMin: opts.MapKMin, KMax: opts.MapKMax,
			LargeThreshold: opts.PAMThreshold,
			Rand:           rand.New(rand.NewSource(1)),
		}); err != nil {
			t.Fatal(err)
		}
		return o.DistEvals()
	}
	prev := evals(2500)
	for _, n := range []int{5000, 10000} {
		got := evals(n)
		t.Logf("n=%d: %d evaluations (n/2: %d)", n, got, prev)
		if float64(got) > 2.2*float64(prev) {
			t.Errorf("n=%d: a sweep made %d evaluations, %.2f× the %d at n=%d; the law allows 2.2×", n, got, float64(got)/float64(prev), prev, n/2)
		}
		prev = got
	}
}
