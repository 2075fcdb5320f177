package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/stats"
)

// blobDatasets are planted-blob inputs from 500 to 4000 objects, the
// golden workloads the oracle layer is pinned on.
func blobDatasets(t *testing.T) []struct {
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
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
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
// the lazy oracle: CLARA, whose sample matrices each storage fills by
// its own code and whose assignments read its rows, and an exact sweep,
// which reads a lazy oracle's vectors as the scratch's matrix, must
// produce byte-identical clusterings whether distances come from the
// materialized matrix or are computed on demand.
func TestLazyOracleMatchesDistMatrix(t *testing.T) {
	for _, g := range blobDatasets(t) {
		matrix := ComputeDistMatrix(g.vecs, stats.Euclidean{})
		lazy := NewLazyOracle(g.vecs, stats.Euclidean{})
		clara := func(o Oracle) *Clustering {
			c, err := CLARA(o, g.k, CLARAOptions{Rand: rand.New(rand.NewSource(int64(g.n)))})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		assertIdenticalClustering(t, "clara", g.n, clara(matrix), clara(lazy))
		if g.n > 1000 {
			continue
		}
		exact := func(o Oracle) *Clustering {
			c, err := AutoK(o, AutoKOptions{KMin: 2, KMax: g.k, Rand: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		assertIdenticalClustering(t, "exact sweep", g.n, exact(matrix), exact(lazy))
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

// TestLazyOracleRowsExact pins the lazy oracle's rows to the
// materialized matrix's, on repeated calls too.
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
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(vecs); i += 7 {
			matrix.RowInto(i, want)
			lazy.RowInto(i, got)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("pass %d row %d col %d: %v != %v", pass, i, j, got[j], want[j])
				}
			}
		}
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

// TestBuildOracleSelectsImplementation checks both sides of the
// crossover Scratch.Oracle is handed, that 0 is no crossover, and that
// the BuildOracle wrapper, whose threshold argument is ignored, decides
// at DefaultPAMThreshold.
func TestBuildOracleSelectsImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := make([][]float64, DefaultPAMThreshold+1)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64()}
	}
	metric := stats.Euclidean{}
	var sc Scratch
	if _, ok := sc.Oracle(vecs[:50], metric, 50).(*DistMatrix); !ok {
		t.Error("at the threshold the oracle should materialize")
	}
	if _, ok := sc.Oracle(vecs[:51], metric, 50).(*LazyOracle); !ok {
		t.Error("above the threshold the oracle should go lazy")
	}
	if _, ok := sc.Oracle(vecs[:51], metric, 0).(*DistMatrix); !ok {
		t.Error("with no threshold the oracle should materialize")
	}
	if _, ok := BuildOracle(vecs[:DefaultPAMThreshold], metric, OracleAuto, 49, KNNOracleOptions{}).(*DistMatrix); !ok {
		t.Error("BuildOracle should materialize at DefaultPAMThreshold")
	}
	if _, ok := BuildOracle(vecs, metric, OracleAuto, 1<<20, KNNOracleOptions{}).(*LazyOracle); !ok {
		t.Error("BuildOracle should go lazy above DefaultPAMThreshold")
	}
}

// TestScratchOracleReusesStorage: a scratch's matrix is built on the
// storage of the scratch's last one when that has room — every cell
// rewritten, so the spent matrix's cells leave no trace — and on new
// storage when it has not, leaving the spent one as it was; a lazy
// oracle leaves the scratch's matrix alone.
func TestScratchOracleReusesStorage(t *testing.T) {
	vecs := normalVecs(60, 3, 24)
	metric := stats.Euclidean{}
	want := ComputeDistMatrix(vecs, metric)

	spent := NewDistMatrix(len(vecs) + 20)
	for i := range spent.data {
		spent.data[i] = math.NaN()
	}
	cells := &spent.data[0]
	sc := Scratch{matrix: spent}
	got, ok := sc.Oracle(vecs, metric, len(vecs)).(*DistMatrix)
	if !ok || got != spent || &got.data[0] != cells {
		t.Fatal("a large enough spent matrix was not reused")
	}
	assertOracleByteIdentical(t, "reused", got, want)
	if _, ok := sc.Oracle(vecs, metric, 10).(*LazyOracle); !ok || sc.matrix != spent {
		t.Fatal("a lazy oracle replaced the scratch's matrix")
	}

	small := NewDistMatrix(10)
	sc = Scratch{matrix: small}
	if got := sc.Oracle(vecs, metric, len(vecs)); got == Oracle(small) || small.N() != 10 {
		t.Fatal("a spent matrix too small was reused or reshaped")
	}
	assertOracleByteIdentical(t, "fresh", sc.matrix, want)
}
