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

func gather(vecs [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, p := range idx {
		out[i] = vecs[p]
	}
	return out
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

// TestDistMatrixSubsetByteIdentical pins the matrix derivation: a Subset
// view over the parent's condensed storage must answer bit-identically
// to a matrix freshly computed over the subset's vectors, and PAM over
// both must produce the same clustering.
func TestDistMatrixSubsetByteIdentical(t *testing.T) {
	vecs, idx := deriveTestVecs(600, 5, 11)
	parent := ComputeDistMatrix(vecs, stats.Euclidean{})
	derived := parent.Subset(idx)
	fresh := ComputeDistMatrix(gather(vecs, idx), stats.Euclidean{})
	assertOracleByteIdentical(t, "matrix", derived, fresh)

	cd, err := PAM(derived, 4)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := PAM(fresh, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalClustering(t, "matrix-subset", len(idx), cd, cf)
}

// TestLazyOracleSubsetByteIdentical pins the lazy derivation on both
// RowInto paths: with the parent memo cold (distances computed from the
// vectors) and warmed (rows gathered out of the parent's memo).
func TestLazyOracleSubsetByteIdentical(t *testing.T) {
	vecs, idx := deriveTestVecs(500, 4, 12)
	for _, warm := range []bool{false, true} {
		parent := NewLazyOracle(vecs, stats.Euclidean{})
		if warm {
			buf := make([]float64, len(vecs))
			for _, p := range idx {
				parent.RowInto(p, buf) // memoize the exact rows Subset will gather
			}
		}
		derived := parent.Subset(idx)
		fresh := NewLazyOracle(gather(vecs, idx), stats.Euclidean{})
		assertOracleByteIdentical(t, "lazy", derived, fresh)

		cd, err := PAM(derived, 3)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := PAM(fresh, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalClustering(t, "lazy-subset", len(idx), cd, cf)
	}
}

// TestLazySubsetMemoBounded asserts the derived oracle's own memo obeys
// the same bound as its parent's.
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

// TestDerivedOraclesConcurrent hammers several derived oracles that
// share one parent from concurrent goroutines — the cluster-layer half
// of the concurrent-derived-builds guarantee (run under -race in CI).
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
// the one oracle they were handed, concurrently. Over a lazy parent the
// subsets read through its row memo — here while another goroutine
// fills that memo, as a PAM run sharing the parent would — and the
// clustering must still be the sequential, cold-memo one (run under
// -race in CI).
func TestDerivedOraclesConcurrentCLARA(t *testing.T) {
	vecs, _ := deriveTestVecs(1200, 4, 17)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	run := func(parallelism int) *Clustering {
		c, err := CLARA(parent, 4, CLARAOptions{
			Samples: 8, Parallelism: parallelism, Rand: rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	want := run(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := make([]float64, len(vecs))
		for i := 0; i < 2*lazyCacheRows; i++ {
			parent.RowInto(i, row)
		}
	}()
	got := run(4)
	wg.Wait()
	assertIdenticalClustering(t, "clara over a shared lazy parent", len(vecs), got, want)
}
