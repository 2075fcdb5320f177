package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
)

// deriveTestVecs returns pinned-seed vectors plus a deterministic
// every-other-object subset.
func deriveTestVecs(n, dims int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.NormFloat64() * 3
		}
		vecs[i] = v
	}
	var idx []int
	for i := 0; i < n; i += 2 {
		idx = append(idx, i)
	}
	return vecs, idx
}

// assertOracleByteIdentical compares every pair and every RowInto row of
// the two oracles for exact (bit-level) float equality.
func assertOracleByteIdentical(t *testing.T, label string, got, want Oracle) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N %d != %d", label, got.N(), want.N())
	}
	n := want.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.Dist(i, j), want.Dist(i, j); !sameBits(g, w) {
				t.Fatalf("%s: Dist(%d,%d) = %v, want %v", label, i, j, g, w)
			}
		}
	}
	g, w := make([]float64, n), make([]float64, n)
	for pass := 0; pass < 2; pass++ { // second pass exercises the memos
		for i := 0; i < n; i++ {
			got.RowInto(i, g)
			want.RowInto(i, w)
			for j := range w {
				if !sameBits(g[j], w[j]) {
					t.Fatalf("%s pass %d: RowInto(%d)[%d] = %v, want %v", label, pass, i, j, g[j], w[j])
				}
			}
		}
	}
}

// TestLazySubsetMemoBounded asserts a lazy subset's own memo obeys the
// same bound as its parent's. (That a subset answers like its parent is
// the subset law TestOracleContract holds every storage to.)
func TestLazySubsetMemoBounded(t *testing.T) {
	vecs, idx := deriveTestVecs(4*lazyCacheRows, 2, 13)
	derived := NewLazyOracle(vecs, stats.Euclidean{}).Subset(idx).(*LazyOracle)
	dst := make([]float64, len(idx))
	for i := range idx {
		derived.RowInto(i, dst)
	}
	if got := derived.cachedRows(); got > lazyCacheRows {
		t.Fatalf("derived memo holds %d rows, cap is %d", got, lazyCacheRows)
	}
}

// TestDerivedOraclesConcurrent hammers several subsets of one lazy
// parent from concurrent goroutines, each filling its own memo, as
// CLARA's fan-out does (run under -race in CI).
func TestDerivedOraclesConcurrent(t *testing.T) {
	vecs, _ := deriveTestVecs(400, 4, 16)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idx []int
			for i := w % 3; i < len(vecs); i += 3 {
				idx = append(idx, i)
			}
			o := parent.Subset(idx)
			dst := make([]float64, len(idx))
			for i := range idx {
				o.RowInto(i, dst)
				_ = o.Dist(i, (i+1)%len(idx))
			}
		}()
	}
	wg.Wait()
}

// TestDerivedOraclesConcurrentCLARA: CLARA's per-sample runs each subset
// the one oracle they were handed, concurrently — here while another
// goroutine fills the lazy parent's memo — and the clustering must
// still be the sequential, cold-memo one (run under -race in CI).
func TestDerivedOraclesConcurrentCLARA(t *testing.T) {
	vecs, _ := deriveTestVecs(1200, 4, 17)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	run := func() *Clustering {
		c, err := CLARA(parent, 4, CLARAOptions{Samples: 8, Rand: rand.New(rand.NewSource(5))})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var want *Clustering
	inline(func() { want = run() })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := make([]float64, len(vecs))
		for i := 0; i < 2*lazyCacheRows; i++ {
			parent.RowInto(i, row)
		}
	}()
	got := run()
	wg.Wait()
	assertIdenticalClustering(t, "clara over a shared lazy parent", len(vecs), got, want)
}
