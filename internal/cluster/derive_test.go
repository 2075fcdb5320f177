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

// TestKNNOracleSubsetBounds checks the contractual properties the
// induced subgraph must preserve: answers never underestimate the true
// distance, surviving neighborhood pairs stay exact, answers are
// symmetric, and clustering over the derived oracle stays within the
// documented ≤2% true-cost inflation bound of the oracle family.
func TestKNNOracleSubsetBounds(t *testing.T) {
	for _, g := range e5Datasets(t) {
		if g.n > 2000 {
			continue // the O(m²) verification below dominates the test
		}
		parent := NewKNNOracle(g.vecs, stats.Euclidean{}, KNNOracleOptions{})
		var idx []int
		for i := 0; i < g.n; i += 2 {
			idx = append(idx, i)
		}
		derived := parent.Subset(idx).(*KNNOracle)
		metric := stats.Euclidean{}
		sub := gather(g.vecs, idx)
		for i := range idx {
			for j := range idx {
				truth := metric.Dist(sub[i], sub[j])
				got := derived.Dist(i, j)
				if i == j {
					if got != 0 {
						t.Fatalf("n=%d: Dist(%d,%d) = %v, want 0", g.n, i, j, got)
					}
					continue
				}
				if got < truth-1e-9 {
					t.Fatalf("n=%d: derived Dist(%d,%d) = %v underestimates true %v", g.n, i, j, got, truth)
				}
				if containsID(derived.adjIdx[i], int32(j)) && got != truth {
					t.Fatalf("n=%d: surviving neighbor pair (%d,%d): %v != exact %v", g.n, i, j, got, truth)
				}
				if got != derived.Dist(j, i) {
					t.Fatalf("n=%d: asymmetric answer for (%d,%d)", g.n, i, j)
				}
			}
		}

		// Golden inflation bound: PAM over the derived oracle, costed on
		// the true metric, within 2% of PAM over the exact sub-matrix.
		exact := ComputeDistMatrix(sub, stats.Euclidean{})
		ce, err := PAM(exact, g.k)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := PAM(derived, g.k)
		if err != nil {
			t.Fatal(err)
		}
		_, trueCost := AssignToMedoids(exact, cd.Medoids)
		if ratio := trueCost / ce.Cost; ratio > 1.02 {
			t.Errorf("n=%d k=%d: derived knn cost inflation %.5f exceeds 1.02", g.n, g.k, ratio)
		}
	}
}

// TestKNNOracleSubsetUnsortedIdx covers the non-ascending idx path: the
// induced adjacency must be re-sorted so binary search keeps working.
func TestKNNOracleSubsetUnsortedIdx(t *testing.T) {
	vecs, idx := deriveTestVecs(300, 3, 14)
	// Reverse the subset order.
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
	parent := NewKNNOracle(vecs, stats.Euclidean{}, KNNOracleOptions{K: 16, Pivots: 4})
	derived := parent.Subset(idx).(*KNNOracle)
	metric := stats.Euclidean{}
	for i := range idx {
		if !int32sSorted(derived.adjIdx[i]) {
			t.Fatalf("adjacency of %d not sorted after unsorted-idx derivation", i)
		}
		for j := range idx {
			truth := metric.Dist(vecs[idx[i]], vecs[idx[j]])
			if got := derived.Dist(i, j); i != j && got < truth-1e-9 {
				t.Fatalf("Dist(%d,%d) = %v underestimates %v", i, j, got, truth)
			}
		}
	}
}

// TestDerivedOraclesConcurrent hammers several derived oracles that
// share one parent from concurrent goroutines — the cluster-layer half
// of the concurrent-derived-builds guarantee (run under -race in CI).
func TestDerivedOraclesConcurrent(t *testing.T) {
	vecs, _ := deriveTestVecs(400, 4, 16)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	knnParent := NewKNNOracle(vecs, stats.Euclidean{}, KNNOracleOptions{K: 16, Pivots: 4})
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
			for _, o := range []Oracle{parent.Subset(idx), knnParent.Subset(idx)} {
				dst := make([]float64, len(idx))
				for i := range idx {
					o.RowInto(i, dst)
					_ = o.Dist(i, (i+1)%len(idx))
				}
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
