package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// perCellMetric is the Euclidean metric as the oracles called it before
// stats.Distance had a row form: one Dist per cell. Oracles built over
// it are the reference the row kernel's oracles are compared with.
type perCellMetric struct{ stats.Euclidean }

func (m perCellMetric) DistRow(a []float64, bs [][]float64, dst []float64) {
	for j, b := range bs {
		dst[j] = m.Dist(a, b)
	}
}

// sweepVecs returns n vectors in four loose groups; with dup > 1 every
// point appears dup times, so BUILD and SWAP meet exact ties.
func sweepVecs(n, dup int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		if i%dup != 0 {
			vecs[i] = vecs[i-1]
			continue
		}
		c := float64(rng.Intn(4)) * 5
		vecs[i] = []float64{c + rng.NormFloat64(), c - rng.NormFloat64(), rng.NormFloat64() * 2, c / 2}
	}
	return vecs
}

// sweepOracles returns the storages over vecs: the matrix, an ascending
// view of a matrix over twice the objects and the lazy oracle.
func sweepOracles(vecs [][]float64, seed int64) []struct {
	name string
	o    Oracle
} {
	metric := stats.Euclidean{}
	n := len(vecs)
	// The view's parent interleaves vecs with as many other vectors.
	parent := make([][]float64, 0, 2*n)
	idx := make([]int, n)
	for i, other := range sweepVecs(n, 1, seed+100) {
		idx[i] = len(parent)
		parent = append(parent, vecs[i], other)
	}
	return []struct {
		name string
		o    Oracle
	}{
		{"matrix", ComputeDistMatrix(vecs, metric)},
		{"view", ComputeDistMatrix(parent, metric).Subset(idx)},
		{"lazy", NewLazyOracle(vecs, metric)},
	}
}

// TestBuildPrefixLaw pins what lets AutoK run BUILD once per sweep:
// BUILD is greedy and first-wins on ties, so its seeds for k are the
// first k of its seeds for any larger k — on random data, on data with
// duplicated points, over every storage, sequential and fanned out.
func TestBuildPrefixLaw(t *testing.T) {
	old := maxWorkers
	defer func() { maxWorkers = old }()
	const n, kMax = 150, 9
	for _, dup := range []int{1, 3} {
		for _, tc := range sweepOracles(sweepVecs(n, dup, 31), 31) {
			for _, workers := range []int{1, 3} {
				maxWorkers = workers
				full := pamBuild(tc.o, kMax, newRowScratch(n))
				for k := 1; k <= kMax; k++ {
					got := pamBuild(tc.o, k, newRowScratch(n))
					if fmt.Sprint(got) != fmt.Sprint(full[:k]) {
						t.Fatalf("%s dup=%d workers=%d: BUILD to %d = %v, BUILD to %d starts %v", tc.name, dup, workers, k, got, kMax, full[:k])
					}
				}
			}
		}
	}
}

// clusterKReference and autoKReference are ClusterK and AutoK as they
// were before the sweep: one full run per k, nothing shared between ks.
func clusterKReference(o Oracle, k int, opts AutoKOptions) (*Clustering, error) {
	if o.N() <= opts.LargeThreshold {
		return PAM(o, k)
	}
	co := opts.CLARA
	co.Rand, co.Context = opts.Rand, opts.Context
	return CLARA(o, k, co)
}

func autoKReference(o Oracle, opts AutoKOptions) (*Clustering, error) {
	var best *Clustering
	for k := opts.KMin; k <= min(opts.KMax, o.N()-1); k++ {
		c, err := clusterKReference(o, k, opts)
		if err != nil {
			return nil, err
		}
		if o.N() > opts.MCSilhouetteThreshold {
			c.Silhouette = MCSilhouette(o, c.Labels, c.K, MCSilhouetteOptions{Rand: opts.Rand})
		} else {
			c.Silhouette = Silhouette(o, c.Labels, c.K)
		}
		if best == nil || c.Silhouette > best.Silhouette {
			best = c
		}
	}
	return best, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertSameRun(t *testing.T, label string, got, want *Clustering, gotRand, wantRand *rand.Rand) {
	t.Helper()
	assertIdenticalClustering(t, label, len(want.Labels), got, want)
	if len(got.Labels) != len(want.Labels) || len(got.Medoids) != len(want.Medoids) {
		t.Fatalf("%s: %d labels and %d medoids, want %d and %d", label, len(got.Labels), len(got.Medoids), len(want.Labels), len(want.Medoids))
	}
	if !sameBits(got.Cost, want.Cost) || !sameBits(got.Silhouette, want.Silhouette) {
		t.Fatalf("%s: cost %v silhouette %v, want %v and %v", label, got.Cost, got.Silhouette, want.Cost, want.Silhouette)
	}
	if g, w := gotRand.Int63(), wantRand.Int63(); g != w {
		t.Fatalf("%s: the random source was left in another state (next draw %d, want %d)", label, g, w)
	}
}

// checkSweep runs AutoK and the per-k reference from identically seeded
// sources and holds AutoK to the reference: same winner bit for bit, the
// same draws taken from Rand, progress once per scored k, and — where
// the exact scorer ran — per-cluster means that are SilhouettePerCluster's.
func checkSweep(t *testing.T, label string, o Oracle, opts AutoKOptions) {
	t.Helper()
	scored, total := 0, opts.KMax-opts.KMin+1
	opts.Progress = func(done, of int) {
		if scored++; done != scored || of != total {
			t.Fatalf("%s: progress (%d, %d) at scored k number %d of %d", label, done, of, scored, total)
		}
	}
	ref := opts
	opts.Rand, ref.Rand = rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	got, err := AutoK(o, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := autoKReference(o, ref)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, label, got, want, opts.Rand, ref.Rand)
	if scored != total {
		t.Fatalf("%s: progress fired %d times, want %d", label, scored, total)
	}
	if o.N() > opts.MCSilhouetteThreshold {
		if got.ClusterSilhouettes != nil {
			t.Fatalf("%s: per-cluster means carried from a Monte-Carlo score", label)
		}
		return
	}
	per := SilhouettePerCluster(o, got.Labels, got.K)
	if len(got.ClusterSilhouettes) != len(per) {
		t.Fatalf("%s: carries %d per-cluster means, want %d", label, len(got.ClusterSilhouettes), len(per))
	}
	for c := range per {
		if !sameBits(got.ClusterSilhouettes[c], per[c]) {
			t.Fatalf("%s: cluster %d carries %v, SilhouettePerCluster says %v", label, c, got.ClusterSilhouettes[c], per[c])
		}
	}
}

// TestAutoKMatchesPerKReference holds the sweep to the per-k loop it
// replaced on every storage, on both sides of LargeThreshold and of
// MCSilhouetteThreshold, on random data and on data with duplicated
// points.
func TestAutoKMatchesPerKReference(t *testing.T) {
	for _, dup := range []int{1, 2} {
		for _, tc := range sweepOracles(sweepVecs(150, dup, 41), 41) {
			for _, th := range []struct{ large, mc int }{{1000, 1000}, {1000, 120}, {120, 120}, {120, 1000}} {
				checkSweep(t, fmt.Sprintf("%s dup=%d large=%d mc=%d", tc.name, dup, th.large, th.mc), tc.o,
					AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: th.large,
						MCSilhouetteThreshold: th.mc})
			}
		}
	}
	// Past 256 objects the Monte-Carlo scorer draws its sub-samples from
	// Rand between one k's clustering and the next's.
	for _, tc := range sweepOracles(sweepVecs(270, 1, 43), 43)[:2] {
		for _, large := range []int{1000, 200} {
			checkSweep(t, fmt.Sprintf("%s n=270 large=%d mc=200", tc.name, large), tc.o,
				AutoKOptions{KMin: 2, KMax: 5, LargeThreshold: large, MCSilhouetteThreshold: 200})
		}
	}
}

// TestClusterKMatchesPerKReference: ClusterK is the sweep's one-k case,
// including the ks the shared BUILD does not serve (1, and k >= n).
func TestClusterKMatchesPerKReference(t *testing.T) {
	const n = 140
	o := ComputeDistMatrix(sweepVecs(n, 2, 51), stats.Euclidean{})
	for _, large := range []int{1000, 100} {
		for _, k := range []int{1, 2, 5, n, n + 3} {
			opts := AutoKOptions{LargeThreshold: large, Rand: rand.New(rand.NewSource(3))}
			ref := AutoKOptions{LargeThreshold: large, Rand: rand.New(rand.NewSource(3))}
			got, err := ClusterK(o, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := clusterKReference(o, k, ref)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, fmt.Sprintf("large=%d k=%d", large, k), got, want, opts.Rand, ref.Rand)
		}
	}
	if _, err := ClusterK(o, 0, AutoKOptions{}); err == nil {
		t.Error("ClusterK accepted k = 0")
	}
}

// plantedVecs has what the row kernel must not be thrown by: missing
// values (as prep's ImputeNone leaves them), an infinity, exact
// duplicates, and a count that is no multiple of four.
func plantedVecs() [][]float64 {
	vecs := sweepVecs(203, 1, 61)
	for i := 0; i < len(vecs); i += 9 {
		vecs[i] = append([]float64(nil), vecs[i]...)
		vecs[i][i%4] = math.NaN()
	}
	vecs[5] = []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	vecs[17] = []float64{math.Inf(1), 1, 2, 3}
	vecs[18] = vecs[17]
	vecs[40] = vecs[41]
	return vecs
}

// TestRowKernelLeavesOraclesUnchanged: the matrix fill and the lazy rows
// hold the same bits whether the metric is called a
// row at a time or a cell at a time, NaN cells included — and the matrix
// holds them at every worker count, one worker or more than it has rows
// to deal evenly.
func TestRowKernelLeavesOraclesUnchanged(t *testing.T) {
	old := maxWorkers
	defer func() { maxWorkers = old }()
	vecs := plantedVecs()
	row, cell := stats.Euclidean{}, perCellMetric{}
	maxWorkers = 1
	want := ComputeDistMatrix(vecs, cell)
	for _, workers := range []int{1, 2, 7} {
		maxWorkers = workers
		assertOracleByteIdentical(t, fmt.Sprintf("matrix/%d workers", workers), ComputeDistMatrix(vecs, row), want)
	}
	assertOracleByteIdentical(t, "lazy", NewLazyOracle(vecs, row), NewLazyOracle(vecs, cell))
	// The matrix is the metric, cell by cell.
	for i := range vecs {
		for j := range vecs {
			if d := row.Dist(vecs[i], vecs[j]); i != j && !sameBits(want.Dist(i, j), d) {
				t.Fatalf("matrix cell (%d,%d) = %v, the metric says %v", i, j, want.Dist(i, j), d)
			}
		}
	}
}

// TestSilhouetteRowAndPairFormsAgree runs the silhouette kernel in both
// of its forms — a row per object, a pair per cell — over every storage,
// with unlabelled objects and a singleton cluster in the labelling: same
// total, same per-cluster sums, same counts, bit for bit.
func TestSilhouetteRowAndPairFormsAgree(t *testing.T) {
	const n, k = 180, 5
	rng := rand.New(rand.NewSource(71))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k-1) - i%13/12 // a few -1s
	}
	labels[7] = k - 1 // a singleton
	sizes := make([]int, k)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	for _, tc := range sweepOracles(sweepVecs(n, 2, 72), 72) {
		run := func(row []float64) (float64, []float64, []int) {
			per, cnt := make([]float64, k), make([]int, k)
			return silhouetteKernel(tc.o, labels, sizes, row, make([]float64, k), per, cnt), per, cnt
		}
		rt, rp, rc := run(make([]float64, n))
		pt, pp, pc := run(nil)
		if !sameBits(rt, pt) || fmt.Sprint(rc) != fmt.Sprint(pc) {
			t.Fatalf("%s: rows total %v counts %v, pairs total %v counts %v", tc.name, rt, rc, pt, pc)
		}
		for c := range rp {
			if !sameBits(rp[c], pp[c]) {
				t.Fatalf("%s: cluster %d sums to %v by rows, %v by pairs", tc.name, c, rp[c], pp[c])
			}
		}
	}
}
