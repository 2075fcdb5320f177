package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/stats"
)

// bothAlgorithms are the SWAP implementations under differential test:
// the production PAM (FasterPAM's eager SWAP) and the classic reference.
var bothAlgorithms = []struct {
	name string
	run  func(*DistMatrix, int) (*Clustering, error)
}{{"pam", PAM}, {"classic", PAMClassic}}

// PAMClassic is the textbook PAM of Kaufman & Rousseeuw (1990): a BUILD
// phase greedily seeds k medoids, then a SWAP phase repeatedly exchanges
// the single best (medoid, candidate) pair whenever that lowers the total
// dissimilarity, until no improving swap exists. Each SWAP iteration costs
// O(k·n²). It is the reference the differential tests hold PAM to.
func PAMClassic(m *DistMatrix, k int) (*Clustering, error) {
	if c, err := checkPAMArgs(m, k); c != nil || err != nil {
		return c, err
	}
	seeds, err := new(pamRun).build(m, k)
	if err != nil {
		return nil, err
	}
	return pamClassicFrom(m, k, seeds)
}

// pamClassicFrom runs the textbook SWAP loop from the given seed medoids
// (which it copies, not mutates). Preconditions (1 <= k < n) are the
// caller's responsibility.
func pamClassicFrom(o Oracle, k int, seeds []int) (*Clustering, error) {
	n := o.N()
	pairs := pairMatrix(o)

	medoids := append([]int(nil), seeds...)
	// nearest[i] = distance to closest medoid, second[i] = to 2nd closest.
	nearest := make([]float64, n)
	second := make([]float64, n)
	labels := make([]int, n)
	assign := func() float64 {
		total := 0.0
		for i := 0; i < n; i++ {
			d1, d2, l := math.Inf(1), math.Inf(1), -1
			for mi, m := range medoids {
				d := pairs.Dist(i, m)
				if d < d1 {
					d2 = d1
					d1 = d
					l = mi
				} else if d < d2 {
					d2 = d
				}
			}
			nearest[i], second[i], labels[i] = d1, d2, l
			total += d1
		}
		return total
	}
	cost := assign()

	isMedoid := make([]bool, n)
	for _, m := range medoids {
		isMedoid[m] = true
	}

	for iter := 0; iter < maxSwapIters; iter++ {
		bestDelta := 0.0
		bestM, bestH := -1, -1
		for mi := range medoids {
			for h := 0; h < n; h++ {
				if isMedoid[h] {
					continue
				}
				// Cost change of swapping medoid mi with candidate h
				// (standard PAM T_mh computation).
				delta := 0.0
				for j := 0; j < n; j++ {
					if j == h {
						delta -= nearest[j] // h becomes a medoid: cost 0
						continue
					}
					djh := pairs.Dist(j, h)
					if labels[j] == mi {
						// j loses its medoid m; moves to h or to its
						// second-best medoid.
						delta += math.Min(djh, second[j]) - nearest[j]
					} else if djh < nearest[j] {
						// j defects to the new medoid h.
						delta += djh - nearest[j]
					}
				}
				if delta < bestDelta-1e-12 {
					bestDelta, bestM, bestH = delta, mi, h
				}
			}
		}
		if bestM < 0 {
			break // no improving swap: local optimum
		}
		isMedoid[medoids[bestM]] = false
		isMedoid[bestH] = true
		medoids[bestM] = bestH
		cost = assign()
	}

	return &Clustering{K: k, Labels: labels, Medoids: medoids, Cost: cost, Silhouette: math.NaN()}, nil
}

// TestPAMKGreaterEqualN is the regression test for the k >= n degenerate
// case: the effective K must be n (not the requested k), every object its
// own self-labeled medoid, and the cost must be explicitly zero — it used
// to be left at the zero value by accident, now it is part of the
// contract. Both algorithms share the path, but test both anyway.
func TestPAMKGreaterEqualN(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {5}}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	for _, algo := range bothAlgorithms {
		for _, k := range []int{3, 5, 100} {
			c, err := algo.run(m, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", algo.name, k, err)
			}
			if c.K != 3 {
				t.Errorf("%s k=%d: effective K = %d, want n=3", algo.name, k, c.K)
			}
			if c.Cost != 0 {
				t.Errorf("%s k=%d: cost = %g, want exactly 0", algo.name, k, c.Cost)
			}
			if len(c.Labels) != 3 || len(c.Medoids) != 3 {
				t.Fatalf("%s k=%d: labels/medoids sized %d/%d, want 3/3", algo.name, k, len(c.Labels), len(c.Medoids))
			}
			for i := 0; i < 3; i++ {
				if c.Labels[i] != i || c.Medoids[i] != i {
					t.Errorf("%s k=%d: object %d not its own medoid (label=%d medoid=%d)",
						algo.name, k, i, c.Labels[i], c.Medoids[i])
				}
			}
			if !math.IsNaN(c.Silhouette) {
				t.Errorf("%s k=%d: silhouette = %g, want NaN", algo.name, k, c.Silhouette)
			}
			if got := len(c.Sizes()); got != 3 {
				t.Errorf("%s k=%d: Sizes() has %d entries, want K=3", algo.name, k, got)
			}
		}
	}
}

// TestFasterPAMMatchesClassicOnRandomOracles asserts that the eager
// removal-loss SWAP reaches exactly the same final cost as the classic
// Kaufman & Rousseeuw loop on seeded random inputs. The seeds are pinned:
// both algorithms stop at a swap-local optimum, and on unstructured data
// eager descent can legitimately settle in a *different* (often better)
// optimum, so only seeds where the optima coincide are differential
// fixtures. TestFasterPAMNearClassicProperty covers arbitrary seeds with
// a ratio bound instead.
func TestFasterPAMMatchesClassicOnRandomOracles(t *testing.T) {
	// Random condensed distance matrices (non-metric, worst case).
	matrixSeeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31, 32}
	for _, seed := range matrixSeeds {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(120)
		k := 2 + rng.Intn(6)
		m := NewDistMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64())
			}
		}
		assertSameCost(t, m, k, "matrix seed", seed)
	}

	// Uniform random point clouds (metric, no cluster structure).
	pointSeeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}
	for _, seed := range pointSeeds {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		k := 2 + rng.Intn(6)
		dim := 2 + rng.Intn(5)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for d := range vecs[i] {
				vecs[i][d] = rng.Float64() * 10
			}
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		assertSameCost(t, m, k, "points seed", seed)
	}
}

// TestFasterPAMMatchesClassicOnGoldenDatasets runs the differential test
// on the datagen golden datasets — the inputs the experiments and demo
// scenarios actually cluster. With planted structure the swap-local
// optimum is unambiguous, so the costs must coincide exactly.
func TestFasterPAMMatchesClassicOnGoldenDatasets(t *testing.T) {
	type golden struct {
		name string
		ds   *datagen.Dataset
		k    int
		cap  int // subsample cap to keep the O(k·n²) classic runs fast
	}
	cases := []golden{}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(seed)%4
		cases = append(cases, golden{
			name: "blobs",
			ds:   datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: k, Dims: 6, Sep: 6}, rng),
			k:    k,
		})
	}
	rng := rand.New(rand.NewSource(7))
	cases = append(cases, golden{name: "hollywood", ds: datagen.Hollywood(rng), k: 3})
	cases = append(cases, golden{name: "countries", ds: datagen.Countries(rng), k: 2, cap: 600})

	for _, g := range cases {
		_, vecs, err := prep.FitTransform(g.ds.Table, nil, prep.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if g.cap > 0 && len(vecs) > g.cap {
			// Subsample before the O(n²) matrix: the classic reference is
			// quadratic per swap and would dominate the test otherwise.
			sub := make([][]float64, g.cap)
			for i, p := range rand.New(rand.NewSource(11)).Perm(len(vecs))[:g.cap] {
				sub[i] = vecs[p]
			}
			vecs = sub
		}
		assertSameCost(t, ComputeDistMatrix(vecs, stats.Euclidean{}), g.k, g.name, 0)
	}
}

func assertSameCost(t *testing.T, o *DistMatrix, k int, label string, seed int64) {
	t.Helper()
	f, err := PAM(o, k)
	if err != nil {
		t.Fatalf("%s %d: PAM: %v", label, seed, err)
	}
	c, err := PAMClassic(o, k)
	if err != nil {
		t.Fatalf("%s %d: PAMClassic: %v", label, seed, err)
	}
	if math.Abs(f.Cost-c.Cost) > 1e-9 {
		t.Errorf("%s %d (n=%d k=%d): PAM cost %.9f != classic %.9f",
			label, seed, o.N(), k, f.Cost, c.Cost)
	}
	if f.K != c.K {
		t.Errorf("%s %d: K mismatch %d vs %d", label, seed, f.K, c.K)
	}
}

// TestFasterPAMNearClassicProperty is the unpinned companion of the
// differential tests: for arbitrary seeds both algorithms must reach
// swap-local optima of the same neighborhood, so their costs may differ
// only by the gap between local optima — bounded here at 10%, far wider
// than anything observed, while still catching a broken SWAP (which
// diverges by orders of magnitude or violates the cost invariant).
func TestFasterPAMNearClassicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		k := 2 + rng.Intn(5)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		fast, err := PAM(m, k)
		if err != nil {
			return false
		}
		classic, err := PAMClassic(m, k)
		if err != nil {
			return false
		}
		// Costs must be internally consistent...
		sum := 0.0
		for i, l := range fast.Labels {
			sum += m.Dist(i, fast.Medoids[l])
		}
		if math.Abs(sum-fast.Cost) > 1e-9 {
			return false
		}
		// ...and the two local optima close.
		return math.Abs(fast.Cost-classic.Cost) <= 0.10*classic.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFasterPAMDeterministicParallel pins down that the parallel BUILD
// and block-parallel SWAP do not leak scheduling nondeterminism into the
// result: two runs over an input large enough to engage the worker pools
// must agree bit for bit.
func TestFasterPAMDeterministicParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs := make([][]float64, 600)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	a, err := PAM(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PAM(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("costs differ across runs: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
	for i := range a.Medoids {
		if a.Medoids[i] != b.Medoids[i] {
			t.Fatalf("medoids differ at %d", i)
		}
	}
}

// TestFasterPAMForcedParallel forces the worker pools on (single-CPU CI
// machines would otherwise never execute the goroutine paths) and checks
// the parallel result is bit-identical to the sequential one. Running
// under -race this also exercises the concurrent BUILD scoring, block
// evaluation and swap repair for data races.
func TestFasterPAMForcedParallel(t *testing.T) {
	old := maxWorkers
	defer func() { maxWorkers = old }()

	// Both an even split (n=400 over 4 workers) and uneven chunking where
	// rounded-up chunk sizes leave trailing workers with no chunk at all
	// (n=130 over 48 workers → chunk 3 → 44 chunks < 48 workers): phantom
	// worker slots must not leak zero values into the reductions.
	cases := []struct {
		name    string
		k, size int
		workers int
	}{
		{"even/4-workers", 4, 100, 4},
		{"uneven/48-workers", 2, 65, 48},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			vecs, _ := blobs(rng, tc.k, tc.size, 4, 6)
			m := ComputeDistMatrix(vecs, stats.Euclidean{})

			maxWorkers = 1
			seq, err := PAM(m, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			maxWorkers = tc.workers
			par, err := PAM(m, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Cost != par.Cost {
				t.Fatalf("parallel cost %v != sequential %v", par.Cost, seq.Cost)
			}
			for i := range seq.Labels {
				if seq.Labels[i] != par.Labels[i] {
					t.Fatalf("labels diverge at %d", i)
				}
			}
			for i := range seq.Medoids {
				if seq.Medoids[i] != par.Medoids[i] {
					t.Fatalf("medoids diverge at %d", i)
				}
			}
		})
	}
}

// TestPAMDefaultIsFasterPAM: on separated blobs the eager SWAP behind
// PAM and the classic reference land on the same optimum.
func TestPAMDefaultIsFasterPAM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs, _ := blobs(rng, 3, 30, 3, 8)
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	def, err := PAM(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := PAMClassic(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(def.Cost-classic.Cost) > 1e-9 {
		t.Errorf("algorithms disagree on separated blobs: %g vs %g", def.Cost, classic.Cost)
	}
}

// TestPAMRunK1 pins the k == 1 short-circuit: no SWAP runs, and the one
// medoid is the exact optimum — the object with the least total distance
// to all others, lowest index on ties.
func TestPAMRunK1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float64, 80)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	best, bestSum := -1, math.Inf(1)
	for i := range vecs {
		sum := 0.0
		for j := range vecs {
			sum += m.Dist(i, j)
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	got, err := PAM(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 1 || got.Medoids[0] != best || math.Abs(got.Cost-bestSum) > 1e-9 {
		t.Fatalf("k=1: got K %d medoid %d cost %v, want 1 / %d / %v", got.K, got.Medoids[0], got.Cost, best, bestSum)
	}
}

// TestPAMClassicFromSeeds: the classic SWAP must also accept seeds that
// are not BUILD's and land within the usual local-optimum gap.
func TestPAMClassicFromSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 250, K: 3, Dims: 4, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	want, err := PAMClassic(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pamClassicFrom(m, 3, rng.Perm(m.N())[:3])
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost > 1.05*want.Cost {
		t.Fatalf("classic from random seeds: cost %.4f vs BUILD %.4f", got.Cost, want.Cost)
	}
}

// pamBenchSizes is the shared grid of BenchmarkPAM (the engine) and
// BenchmarkPAMClassic (the textbook SWAP loop), so the two benchmarks are
// directly comparable; the headline comparison is n=1000, k=8.
var pamBenchSizes = []struct{ n, k int }{
	{200, 4}, {500, 4}, {1000, 4}, {1000, 8},
}

func benchPAMImpl(b *testing.B, pam func(*DistMatrix, int) (*Clustering, error)) {
	b.Helper()
	for _, sz := range pamBenchSizes {
		rng := rand.New(rand.NewSource(9))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: sz.n, K: sz.k, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		b.Run(fmt.Sprintf("n=%d/k=%d", sz.n, sz.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pam(m, sz.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPAM(b *testing.B)        { benchPAMImpl(b, PAM) }
func BenchmarkPAMClassic(b *testing.B) { benchPAMImpl(b, PAMClassic) }
