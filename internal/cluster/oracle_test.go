package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/stats"
)

// e5Datasets are the planted-blob configurations of the e5 experiment —
// the golden inputs the SWAP-engine comparison runs on, reused here to
// pin the oracle layer against the same workloads.
func e5Datasets(t *testing.T) []struct {
	n, k int
	vecs [][]float64
} {
	t.Helper()
	var out []struct {
		n, k int
		vecs [][]float64
	}
	for _, sz := range []struct{ n, k int }{{500, 4}, {1000, 8}, {2000, 8}, {4000, 8}} {
		rng := rand.New(rand.NewSource(1 + int64(sz.n)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: sz.n, K: sz.k, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			n, k int
			vecs [][]float64
		}{sz.n, sz.k, vecs})
	}
	return out
}

// TestLazyOracleMatchesDistMatrix is the pinned-seed differential test of
// the lazy oracle: PAM must produce byte-identical clusterings whether
// distances come from the materialized matrix or are computed on demand.
func TestLazyOracleMatchesDistMatrix(t *testing.T) {
	for _, g := range e5Datasets(t) {
		matrix := ComputeDistMatrix(g.vecs, stats.Euclidean{})
		lazy := NewLazyOracle(g.vecs, stats.Euclidean{})

		cm, err := PAM(matrix, g.k)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := PAM(lazy, g.k)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalClustering(t, "pam", g.n, cm, cl)
	}
}

func assertIdenticalClustering(t *testing.T, label string, n int, a, b *Clustering) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Fatalf("%s n=%d: cost %v != %v", label, n, a.Cost, b.Cost)
	}
	if a.K != b.K {
		t.Fatalf("%s n=%d: K %d != %d", label, n, a.K, b.K)
	}
	for i := range a.Medoids {
		if a.Medoids[i] != b.Medoids[i] {
			t.Fatalf("%s n=%d: medoid %d differs (%d vs %d)", label, n, i, a.Medoids[i], b.Medoids[i])
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s n=%d: label %d differs (%d vs %d)", label, n, i, a.Labels[i], b.Labels[i])
		}
	}
}

// TestLazyOracleRowsExact pins RowInto and Dist of the lazy oracle to the
// materialized matrix, including repeated calls that hit the memo.
func TestLazyOracleRowsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs := make([][]float64, 300)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	matrix := ComputeDistMatrix(vecs, stats.Euclidean{})
	lazy := NewLazyOracle(vecs, stats.Euclidean{})
	want := make([]float64, len(vecs))
	got := make([]float64, len(vecs))
	for pass := 0; pass < 2; pass++ { // second pass reads the memo
		for i := 0; i < len(vecs); i += 7 {
			matrix.RowInto(i, want)
			lazy.RowInto(i, got)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("pass %d row %d col %d: %v != %v", pass, i, j, got[j], want[j])
				}
				if d := lazy.Dist(i, j); d != want[j] {
					t.Fatalf("Dist(%d,%d) = %v, want %v", i, j, d, want[j])
				}
			}
		}
	}
}

// TestLazyOracleCacheBounded asserts the row memo never exceeds its cap —
// the whole point of the lazy oracle is that memory stays O(n), not
// O(n²), no matter how many rows the SWAP loop touches.
func TestLazyOracleCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs := make([][]float64, 2*lazyCacheRows)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	lazy := NewLazyOracle(vecs, stats.Euclidean{})
	dst := make([]float64, len(vecs))
	for i := range vecs {
		lazy.RowInto(i, dst)
	}
	if got := lazy.cachedRows(); got > lazyCacheRows {
		t.Fatalf("memo holds %d rows, cap is %d", got, lazyCacheRows)
	}
}

// TestNewDistMatrixDegenerate covers the n < 2 guard: degenerate
// selections must get a valid empty matrix, not a zero-length-slice edge
// case.
func TestNewDistMatrixDegenerate(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		m := NewDistMatrix(n)
		wantN := n
		if wantN < 0 {
			wantN = 0
		}
		if m.N() != wantN {
			t.Errorf("NewDistMatrix(%d).N() = %d, want %d", n, m.N(), wantN)
		}
		if m.data == nil {
			t.Errorf("NewDistMatrix(%d): nil storage", n)
		}
	}
	m := NewDistMatrix(1)
	if d := m.Dist(0, 0); d != 0 {
		t.Errorf("Dist(0,0) = %v on 1-object matrix", d)
	}
	dst := make([]float64, 1)
	m.RowInto(0, dst)
	if dst[0] != 0 {
		t.Errorf("RowInto on 1-object matrix = %v", dst)
	}
}

// TestBuildOracleSelectsImplementation checks both sides of
// DefaultMaterializeThreshold, through NewOracle and through the
// BuildOracle wrapper, whose threshold argument is ignored.
func TestBuildOracleSelectsImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := make([][]float64, DefaultMaterializeThreshold+1)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64()}
	}
	at, metric := vecs[:DefaultMaterializeThreshold], stats.Euclidean{}
	if _, ok := NewOracle(at, metric, nil).(*DistMatrix); !ok {
		t.Error("at the threshold the oracle should materialize")
	}
	if _, ok := NewOracle(vecs, metric, nil).(*LazyOracle); !ok {
		t.Error("above the threshold the oracle should go lazy")
	}
	if _, ok := BuildOracle(vecs[:50], metric, OracleAuto, 49, KNNOracleOptions{}).(*DistMatrix); !ok {
		t.Error("BuildOracle should decide by DefaultMaterializeThreshold alone")
	}
}

// TestNewOracleReusesScratch: a matrix built on a spent matrix's storage
// takes it over when it has room — every cell rewritten, so the spent
// matrix's cells leave no trace — and leaves a spent matrix too small
// alone.
func TestNewOracleReusesScratch(t *testing.T) {
	vecs, _ := deriveTestVecs(60, 3, 24)
	metric := stats.Euclidean{}
	want := ComputeDistMatrix(vecs, metric)

	spent := NewDistMatrix(len(vecs) + 20)
	for i := range spent.data {
		spent.data[i] = math.NaN()
	}
	cells := &spent.data[0]
	got, ok := NewOracle(vecs, metric, spent).(*DistMatrix)
	if !ok || got != spent || &got.data[0] != cells {
		t.Fatal("a large enough spent matrix was not reused")
	}
	assertOracleByteIdentical(t, "reused", got, want)

	small := NewDistMatrix(10)
	if got := NewOracle(vecs, metric, small); got == Oracle(small) || small.N() != 10 {
		t.Fatal("a spent matrix too small was reused or reshaped")
	}
	assertOracleByteIdentical(t, "fresh", NewOracle(vecs, metric, small), want)
}
