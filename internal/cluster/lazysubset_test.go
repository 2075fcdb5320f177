package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
)

// normalVecs returns n pinned-seed vectors of dims normal coordinates.
func normalVecs(n, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.NormFloat64() * 3
		}
		vecs[i] = v
	}
	return vecs
}

// filledSubset is the matrix a sweep's fan-out fills over the objects
// idx of o (Oracle.fillSubset), in a store of its own.
func filledSubset(o Oracle, idx []int) *DistMatrix {
	var st subsetStore
	o.fillSubset(idx, &st)
	return st.matrix
}

// assertOracleByteIdentical compares every RowInto row of the two
// oracles, and so every pair, for exact (bit-level) float equality,
// twice.
func assertOracleByteIdentical(t *testing.T, label string, got, want Oracle) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N %d != %d", label, got.N(), want.N())
	}
	n := want.N()
	g, w := make([]float64, n), make([]float64, n)
	for pass := 0; pass < 2; pass++ {
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

// TestLazySubsetsConcurrent hammers several subsets of one lazy parent
// from concurrent goroutines, each filling its matrix in a store of its
// own and adding its cells to the parent's one count, as a sweep's
// fan-out does (run under -race in CI). The count ends at the sum of
// the cells.
func TestLazySubsetsConcurrent(t *testing.T) {
	vecs := normalVecs(400, 4, 16)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	var wg sync.WaitGroup
	var want int64
	for w := 0; w < 8; w++ {
		var idx []int
		for i := w % 3; i < len(vecs); i += 3 {
			idx = append(idx, i)
		}
		want += int64(len(idx) * (len(idx) - 1) / 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := filledSubset(parent, idx)
			dst := make([]float64, len(idx))
			for i := range idx {
				o.RowInto(i, dst)
			}
		}()
	}
	wg.Wait()
	if got := parent.DistEvals(); got != want {
		t.Fatalf("parent counted %d evaluations, want its subsets' %d cells", got, want)
	}
}

// TestLazySubsetsConcurrentCLARA: CLARA's samples each build their
// matrix from the one oracle they were handed, and its per-sample runs
// read its rows for their assignments, concurrently — here while
// another goroutine reads rows of the lazy parent, so that
// subset-matrix builds and row reads add to its one count at once — and
// the clustering must still be the sequential one (run under -race in
// CI).
func TestLazySubsetsConcurrentCLARA(t *testing.T) {
	vecs := normalVecs(1200, 4, 17)
	parent := NewLazyOracle(vecs, stats.Euclidean{})
	run := func() *Clustering {
		c, err := CLARA(parent, 4, CLARAOptions{Rand: rand.New(rand.NewSource(5))})
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
		for i := range vecs {
			parent.RowInto(i, row)
		}
	}()
	got := run()
	wg.Wait()
	assertIdenticalClustering(t, "clara over a shared lazy parent", len(vecs), got, want)
}

// TestConcurrentSweepsShareLazyOracle: two sweeps over one lazy oracle,
// each in its own Scratch, run at once on the CLARA path with
// Monte-Carlo silhouettes, each drawing its samples and rounds and
// building their matrices in its own slots while the other does. Each
// gives, bit for bit, what it gives alone, and the oracle's one count is
// the two sweeps' evaluations (run under -race in CI).
func TestConcurrentSweepsShareLazyOracle(t *testing.T) {
	vecs := normalVecs(1500, 4, 18)
	opts := func(seed int64) AutoKOptions {
		return AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: DefaultPAMThreshold,
			Rand: rand.New(rand.NewSource(seed))}
	}
	alone := make([]*Clustering, 2)
	var evals int64
	for i := range alone {
		o := NewLazyOracle(vecs, stats.Euclidean{})
		c, err := AutoK(o, opts(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = c
		evals += o.DistEvals()
	}
	shared := NewLazyOracle(vecs, stats.Euclidean{})
	got := make([]*Clustering, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = new(Scratch).AutoK(shared, opts(int64(i)))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertIdenticalClustering(t, "concurrent sweep", len(vecs), got[i], alone[i])
		if !sameBits(got[i].Silhouette, alone[i].Silhouette) {
			t.Fatalf("sweep %d: silhouette %v at once, %v alone", i, got[i].Silhouette, alone[i].Silhouette)
		}
		for c, w := range alone[i].ClusterSilhouettes {
			if !sameBits(got[i].ClusterSilhouettes[c], w) {
				t.Fatalf("sweep %d: cluster %d silhouette %v at once, %v alone", i, c, got[i].ClusterSilhouettes[c], w)
			}
		}
	}
	if n := shared.DistEvals(); n != evals {
		t.Fatalf("the shared oracle counted %d evaluations, the sweeps alone %d", n, evals)
	}
}
