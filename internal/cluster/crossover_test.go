package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// BenchmarkCrossover times a map build's cluster layer on both sides of
// the exact/CLARA crossover at the sample sizes a zoom meets below
// core's PAMThreshold: exact is a matrix oracle and the exact sweep
// (one BUILD, SWAP per k, exact silhouettes), clara a lazy oracle and
// the CLARA sweep with Monte-Carlo silhouettes, both over core's k range
// in a warm Scratch, as a build on a dataset's scratch runs them. The
// vectors are four overlapping groups in 33 dimensions, explore_mem's
// widest theme. Where clara is faster, a crossover at n would make a
// smaller sample cluster faster.
func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{128, 256, 404, 668, 1000} {
		vecs, _ := blobs(rand.New(rand.NewSource(int64(n))), 4, n/4, 33, 2)
		for _, path := range []struct {
			name      string
			threshold int
		}{{"exact", n}, {"clara", n - 1}} {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				var sc Scratch
				sweep := func(seed int64) {
					o := sc.Oracle(vecs, stats.Euclidean{}, path.threshold)
					if _, err := sc.AutoK(o, AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: path.threshold,
						Rand: rand.New(rand.NewSource(seed))}); err != nil {
						b.Fatal(err)
					}
				}
				sweep(0) // the scratch an earlier build left
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sweep(int64(i + 1))
				}
			})
		}
	}
}
