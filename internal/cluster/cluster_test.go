package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/store"
)

// blobs generates k well-separated Gaussian clusters of size each in dim
// dimensions, returning vectors and true labels.
func blobs(rng *rand.Rand, k, size, dim int, sep float64) ([][]float64, []int) {
	n := k * size
	vecs := make([][]float64, 0, n)
	labels := make([]int, 0, n)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c) * sep * float64(d%2*2-1)
		}
		centers[c][c%dim] += float64(c) * sep
	}
	for c := 0; c < k; c++ {
		for i := 0; i < size; i++ {
			v := make([]float64, dim)
			for d := 0; d < dim; d++ {
				v[d] = centers[c][d] + rng.NormFloat64()
			}
			vecs = append(vecs, v)
			labels = append(labels, c)
		}
	}
	return vecs, labels
}

// agree measures how consistently two labelings partition the data
// (max-matching accuracy via greedy confusion assignment, enough for
// well-separated test clusters).
func agree(a, b []int) float64 {
	conf := map[[2]int]int{}
	for i := range a {
		conf[[2]int{a[i], b[i]}]++
	}
	used := map[int]bool{}
	match := 0
	for len(conf) > 0 {
		bestK, bestV := [2]int{-1, -1}, -1
		for k, v := range conf {
			if v > bestV {
				bestK, bestV = k, v
			}
		}
		if !used[bestK[1]] {
			match += bestV
			used[bestK[1]] = true
		}
		for k := range conf {
			if k[0] == bestK[0] {
				delete(conf, k)
			}
		}
	}
	return float64(match) / float64(len(a))
}

// pairMatrix is o's distances as a DistMatrix read from its rows, for
// PAM and for tests that query pairs one at a time: an Oracle serves
// only rows. A matrix is its own. Over a lazy oracle it books n rows of
// evaluations.
func pairMatrix(o Oracle) *DistMatrix {
	if m, ok := o.(*DistMatrix); ok {
		return m
	}
	idx := make([]int, o.N())
	for i := range idx {
		idx[i] = i
	}
	return subMatrix(o, idx)
}

// subMatrix is o's distances among the objects idx, in idx's order, as
// a DistMatrix read from o's rows — the sub-matrices of the reference
// implementations, built apart from the fill the Scratch runs. Over a
// lazy oracle it books len(idx) rows of evaluations.
func subMatrix(o Oracle, idx []int) *DistMatrix {
	m := NewDistMatrix(len(idx))
	row := make([]float64, o.N())
	for a, i := range idx {
		o.RowInto(i, row)
		for b := a + 1; b < len(idx); b++ {
			m.Set(a, b, row[idx[b]])
		}
	}
	return m
}

// assign is assignInto in buffers of its own: every object's nearest
// medoid and the total cost.
func assign(o Oracle, medoids []int) ([]int, float64) {
	n := o.N()
	labels := make([]int, n)
	return labels, assignInto(o, medoids, labels, make([]float64, n), make([]float64, n))
}

func TestDistMatrix(t *testing.T) {
	m := NewDistMatrix(4)
	m.Set(0, 1, 1)
	m.Set(2, 3, 5)
	m.Set(3, 0, 7)
	if m.Dist(1, 0) != 1 || m.Dist(3, 2) != 5 || m.Dist(0, 3) != 7 {
		t.Error("symmetry or storage broken")
	}
	if m.Dist(2, 2) != 0 {
		t.Error("diagonal must be 0")
	}
	if m.N() != 4 {
		t.Error("N wrong")
	}
}

func TestDistMatrixSetDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set on diagonal should panic")
		}
	}()
	NewDistMatrix(3).Set(1, 1, 1)
}

func TestComputeDistMatrixMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs, _ := blobs(rng, 2, 10, 3, 5)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	o := pairMatrix(NewLazyOracle(vecs, stats.Euclidean{}))
	for i := 0; i < len(vecs); i++ {
		for j := 0; j < len(vecs); j++ {
			if math.Abs(m.Dist(i, j)-o.Dist(i, j)) > 1e-12 {
				t.Fatalf("matrix and oracle disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestPAMRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs, truth := blobs(rng, 3, 40, 4, 8)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	c, err := PAM(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 3 || len(c.Medoids) != 3 {
		t.Fatalf("K=%d medoids=%v", c.K, c.Medoids)
	}
	if acc := agree(truth, c.Labels); acc < 0.95 {
		t.Errorf("PAM accuracy = %.3f, want >= 0.95", acc)
	}
	// Medoids must carry their own label.
	for mi, m := range c.Medoids {
		if c.Labels[m] != mi {
			t.Errorf("medoid %d has label %d, want %d", m, c.Labels[m], mi)
		}
	}
}

func TestPAMCostDecreasesVsBuildOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs, _ := blobs(rng, 4, 25, 3, 4)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	c, err := PAM(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cost must equal the sum of distances to assigned medoids.
	sum := 0.0
	for i, l := range c.Labels {
		sum += m.Dist(i, c.Medoids[l])
	}
	if math.Abs(sum-c.Cost) > 1e-9 {
		t.Errorf("cost = %g, recomputed = %g", c.Cost, sum)
	}
	// And each object must be assigned to its nearest medoid.
	for i := range vecs {
		bestD, bestL := math.Inf(1), -1
		for mi, md := range c.Medoids {
			if d := m.Dist(i, md); d < bestD {
				bestD, bestL = d, mi
			}
		}
		if bestL != c.Labels[i] && m.Dist(i, c.Medoids[c.Labels[i]]) > bestD+1e-12 {
			t.Fatalf("object %d not assigned to nearest medoid", i)
		}
	}
}

func TestPAMEdgeCases(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {2}}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	if _, err := PAM(m, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := PAM(NewDistMatrix(0), 2); err == nil {
		t.Error("empty data should fail")
	}
	c, err := PAM(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 || c.Labels[0] != 0 || c.Labels[2] != 0 {
		t.Error("k=1 should put everything in one cluster")
	}
	if c.Medoids[0] != 1 {
		t.Errorf("k=1 medoid = %d, want the central object 1", c.Medoids[0])
	}
	// k >= n: every object its own cluster.
	c, err = PAM(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 3 {
		t.Errorf("k>=n should cap at n, got K=%d", c.K)
	}
}

func TestPAMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vecs, _ := blobs(rng, 2, 30, 3, 6)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	a, _ := PAM(m, 2)
	b, _ := PAM(m, 2)
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("PAM must be deterministic on identical input")
		}
	}
}

// TestAssignToMedoids: CLARA's assignment labels each object with its
// nearest medoid, an equidistant one with the earlier medoid, and sums
// the distances.
func TestAssignToMedoids(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {9}, {10}, {5}}
	o := NewLazyOracle(vecs, stats.Euclidean{})
	labels, cost := assign(o, []int{0, 3})
	want := []int{0, 0, 1, 1, 0}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if cost != 7 {
		t.Errorf("cost = %g, want 7", cost)
	}
	if got := o.DistEvals(); got != 2*4 {
		t.Errorf("the assignment made %d evaluations, want its two medoid rows' 8", got)
	}
}

func TestCLARARecoversBlobsAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs, truth := blobs(rng, 3, 1500, 4, 10)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	c, err := CLARA(o, 3, CLARAOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if acc := agree(truth, c.Labels); acc < 0.95 {
		t.Errorf("CLARA accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestCLARAFallsBackToPAM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs, _ := blobs(rng, 2, 10, 2, 6)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	c, err := CLARA(o, 2, CLARAOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PAM(pairMatrix(o), 2)
	if math.Abs(c.Cost-p.Cost) > 1e-9 {
		t.Error("small-input CLARA should equal PAM")
	}
}

func TestCLARARequiresRand(t *testing.T) {
	o := NewLazyOracle([][]float64{{0}, {1}}, stats.Euclidean{})
	if _, err := CLARA(o, 2, CLARAOptions{}); err == nil {
		t.Error("missing Rand should fail")
	}
}

// TestCLARACostNeverWorseThanSingleSample: the winner is never worse
// than CLARA's first sample alone — PAM on that sample, drawn from the
// same seed, extended to every object — since it is always a candidate.
func TestCLARACostNeverWorseThanSingleSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vecs, _ := blobs(rng, 4, 500, 3, 6)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	multi, err := CLARA(o, 4, CLARAOptions{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	idx := store.SampleIndices(o.N(), claraSampleSize(4), rand.New(rand.NewSource(1)))
	first, err := PAM(subMatrix(o, idx), 4)
	if err != nil {
		t.Fatal(err)
	}
	medoids := make([]int, len(first.Medoids))
	for i, m := range first.Medoids {
		medoids[i] = idx[m]
	}
	if _, single := assign(o, medoids); multi.Cost > single+1e-9 {
		t.Errorf("%d-sample cost %g worse than the first sample's %g", claraSamples, multi.Cost, single)
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs, truth := blobs(rng, 2, 50, 3, 12)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	s := Silhouette(m, truth, 2)
	if s < 0.7 {
		t.Errorf("well-separated silhouette = %g, want > 0.7", s)
	}
	// Random labels should score much worse.
	randLabels := make([]int, len(truth))
	for i := range randLabels {
		randLabels[i] = rng.Intn(2)
	}
	if sr := Silhouette(m, randLabels, 2); sr > s/2 {
		t.Errorf("random silhouette %g should be far below true %g", sr, s)
	}
}

func TestSilhouetteBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		vecs := make([][]float64, n)
		labels := make([]int, n)
		for i := range vecs {
			vecs[i] = []float64{r.Float64() * 10, r.Float64() * 10}
			labels[i] = r.Intn(3)
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		s := Silhouette(m, labels, 3)
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	m := NewDistMatrix(3)
	if s := Silhouette(m, []int{0, 0, 0}, 1); s != 0 {
		t.Error("k=1 silhouette should be 0")
	}
	if s := Silhouette(NewDistMatrix(0), nil, 2); s != 0 {
		t.Error("empty silhouette should be 0")
	}
	// Singletons score 0 by convention.
	vecs := [][]float64{{0}, {10}}
	dm := ComputeDistMatrix(vecs, stats.Euclidean{})
	if s := Silhouette(dm, []int{0, 1}, 2); s != 0 {
		t.Errorf("all-singleton silhouette = %g, want 0", s)
	}
}

func TestMCSilhouetteApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vecs, truth := blobs(rng, 3, 400, 3, 8)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	exact := Silhouette(o, truth, 3)
	mc := MCSilhouette(o, truth, 3, rng)
	if math.Abs(exact-mc) > 0.1 {
		t.Errorf("MC silhouette = %g, exact = %g: diff too large", mc, exact)
	}
}

func TestMCSilhouetteSmallInputIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vecs, truth := blobs(rng, 2, 20, 2, 8)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	exact := Silhouette(o, truth, 2)
	mc := MCSilhouette(o, truth, 2, rng)
	if exact != mc {
		t.Error("MC on small input should be exact")
	}
}

func TestSilhouettePerCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs, truth := blobs(rng, 3, 40, 3, 10)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	per := SilhouettePerCluster(m, truth, 3)
	if len(per) != 3 {
		t.Fatalf("per-cluster len = %d", len(per))
	}
	for c, s := range per {
		if s < 0.5 {
			t.Errorf("cluster %d silhouette = %g, want high", c, s)
		}
	}
}

func TestAutoKRecoversPlantedK(t *testing.T) {
	for _, trueK := range []int{2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(20 + trueK)))
		vecs, _ := blobs(rng, trueK, 60, 3, 14)
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		c, err := AutoK(m, AutoKOptions{KMin: 2, KMax: 7, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		if c.K != trueK {
			t.Errorf("planted k=%d, AutoK chose %d (sil=%.3f)", trueK, c.K, c.Silhouette)
		}
	}
}

func TestAutoKTinyInput(t *testing.T) {
	vecs := [][]float64{{0}, {1}}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	c, err := AutoK(m, AutoKOptions{KMin: 2, KMax: 8, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 {
		t.Errorf("2 objects should give K=1, got %d", c.K)
	}
	if _, err := AutoK(NewDistMatrix(0), AutoKOptions{Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty AutoK should fail")
	}
	if _, err := AutoK(m, AutoKOptions{}); err == nil {
		t.Error("AutoK without Rand should fail")
	}
}

// TestClusterKMethodSwitch: above the thresholds a sweep must not try
// O(n²) PAM or the exact silhouette, and its ks share one set of draws.
// A two-k sweep's whole distance work is CLARA's five sample matrices,
// drawn once at the larger k's 80+4·3 = 92 objects (k = 2 reads their
// leading 88), the Monte-Carlo silhouette's four rounds of 256, drawn
// once, and k medoid rows of 2 399 evaluations for each k's five
// full-data costs and labels: 5·C(92,2) + 4·C(256,2) + 5·(2+3)·2 399,
// where PAM's rows alone would cost at least C(2400, 2). Two blobs of
// 1 200 put hundreds of each cluster's objects in the rounds, so no
// cluster's silhouette is taken over its own rows.
func TestClusterKMethodSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vecs, _ := blobs(rng, 2, 1200, 2, 10)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	c, err := AutoK(o, AutoKOptions{KMin: 2, KMax: 3, LargeThreshold: 500, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Labels) != o.N() || c.K != 2 {
		t.Error("two-k sweep result malformed")
	}
	if got, want := o.DistEvals(), int64(5*92*91/2+4*256*255/2+5*(2+3)*2399); got != want {
		t.Errorf("a two-k sweep above the thresholds made %d evaluations, want CLARA's, its assignments' and the Monte-Carlo rounds' %d", got, want)
	}
}

func TestClusteringSizes(t *testing.T) {
	c := &Clustering{K: 3, Labels: []int{0, 1, 1, 2, 2, 2, -1}}
	s := c.Sizes()
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("sizes = %v", s)
	}
}
