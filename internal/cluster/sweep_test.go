package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
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

// sweepOracles returns the storages over vecs: the matrix, a matrix
// filled from one over twice the objects (as a CLARA sample's is) and
// the lazy oracle.
func sweepOracles(vecs [][]float64, seed int64) []struct {
	name string
	o    Oracle
} {
	metric := stats.Euclidean{}
	n := len(vecs)
	// The subset's parent interleaves vecs with as many other vectors.
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
		{"subset", filledSubset(ComputeDistMatrix(parent, metric), idx)},
		{"lazy", NewLazyOracle(vecs, metric)},
	}
}

// TestBuildPrefixLaw pins what lets AutoK run BUILD once per sweep:
// BUILD is greedy and first-wins on ties, so its seeds for k are the
// first k of its seeds for any larger k — on random data, on data with
// duplicated points, over a matrix of every storage, sequential and
// fanned out.
func TestBuildPrefixLaw(t *testing.T) {
	old := maxWorkers
	defer func() { maxWorkers = old }()
	const n, kMax = 150, 9
	for _, dup := range []int{1, 3} {
		for _, tc := range sweepOracles(sweepVecs(n, dup, 31), 31) {
			for _, workers := range []int{1, 3} {
				maxWorkers = workers
				m := pairMatrix(tc.o)
				full, err := new(pamRun).build(m, kMax)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= kMax; k++ {
					got, err := new(pamRun).build(m, k)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(full[:k]) {
						t.Fatalf("%s dup=%d workers=%d: BUILD to %d = %v, BUILD to %d starts %v", tc.name, dup, workers, k, got, kMax, full[:k])
					}
				}
			}
		}
	}
}

// perKDrawReference is AutoK as it was before the sweep shared its
// draws: one full run per k, each CLARA run drawing its own samples and
// each Monte-Carlo score its own rounds, nothing shared between ks. It
// is the unpaired baseline TestPairedKChoiceIsSteadier measures the
// sweep against.
func perKDrawReference(o Oracle, opts AutoKOptions) (*Clustering, error) {
	var best *Clustering
	large := above(o.N(), opts.LargeThreshold)
	for k := opts.KMin; k <= min(opts.KMax, o.N()-1); k++ {
		var c *Clustering
		var err error
		if large {
			c, err = CLARA(o, k, CLARAOptions{Rand: opts.Rand})
		} else {
			c, err = PAM(pairMatrix(o), k)
		}
		if err != nil {
			return nil, err
		}
		if large {
			c.Silhouette = MCSilhouette(o, c.Labels, c.K, opts.Rand)
		} else {
			c.Silhouette = Silhouette(o, c.Labels, c.K)
		}
		if best == nil || c.Silhouette > best.Silhouette {
			best = c
		}
	}
	return best, nil
}

// sharedDrawReference is AutoK as its contract states it, with nothing
// kept between ks but the draws, each drawn once before the first k:
// CLARA's samples, at the largest k's size, each shuffled, whose leading
// claraSampleSize(k) objects k's PAM runs on, as a matrix of their own
// (subMatrix); then the Monte-Carlo rounds, on whose matrices every k is
// scored. The winner's
// per-cluster means are the rounds' (each cluster's widths added up in
// round order, over its measured ones), or SilhouettePerCluster's for a
// cluster the rounds measure fewer than mcMinMembers times — how many
// took that fallback is returned — or on the exact scorer.
func sharedDrawReference(o Oracle, opts AutoKOptions) (_ *Clustering, fallbacks int, _ error) {
	n, rng := o.N(), opts.Rand
	kMax := min(opts.KMax, n-1)
	clara := above(n, opts.LargeThreshold)
	var samples [][]int
	if clara && n > claraSampleSize(opts.KMin) {
		for range claraSamples {
			ids := store.SampleIndices(n, min(claraSampleSize(kMax), n), rng)
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			samples = append(samples, ids)
		}
	}
	var rounds [][]int
	if clara && n > mcSampleSize {
		for range mcRounds {
			rounds = append(rounds, store.SampleIndices(n, mcSampleSize, rng))
		}
	}
	roundLabels := func(r []int, labels []int) []int {
		out := make([]int, len(r))
		for a, i := range r {
			out[a] = labels[i]
		}
		return out
	}
	// Every sub-matrix is read from one matrix of o's pairs.
	pairs := pairMatrix(o)
	var best *Clustering
	for k := opts.KMin; k <= kMax; k++ {
		var c *Clustering
		if !clara || n <= claraSampleSize(k) {
			var err error
			if c, err = PAM(pairs, k); err != nil {
				return nil, 0, err
			}
		} else {
			for _, ids := range samples {
				lead := ids[:claraSampleSize(k)]
				p, err := PAM(subMatrix(pairs, lead), k)
				if err != nil {
					return nil, 0, err
				}
				medoids := make([]int, len(p.Medoids))
				for j, m := range p.Medoids {
					medoids[j] = lead[m]
				}
				labels, cost := assign(o, medoids)
				if c == nil || cost < c.Cost {
					c = &Clustering{K: k, Labels: labels, Medoids: medoids, Cost: cost}
				}
			}
		}
		if rounds != nil {
			sum := 0.0
			for _, r := range rounds {
				sum += Silhouette(subMatrix(pairs, r), roundLabels(r, c.Labels), c.K)
			}
			c.Silhouette = sum / mcRounds
		} else {
			c.Silhouette = Silhouette(o, c.Labels, c.K)
		}
		if best == nil || c.Silhouette > best.Silhouette {
			best = c
		}
	}
	exact := SilhouettePerCluster(o, best.Labels, best.K)
	best.ClusterSilhouettes = exact
	if rounds == nil {
		return best, 0, nil
	}
	sums, counts := make([]float64, best.K), make([]int, best.K)
	for _, r := range rounds {
		sub, labels := subMatrix(pairs, r), roundLabels(r, best.Labels)
		sizes := sizesInto(nil, labels, best.K)
		addWidths(pairWidths(sub, labels, sizes, best.K), labels, sizes, 0, sums, counts)
	}
	best.ClusterSilhouettes = make([]float64, best.K)
	for c := range sums {
		best.ClusterSilhouettes[c] = exact[c]
		if counts[c] >= mcMinMembers {
			best.ClusterSilhouettes[c] = sums[c] / float64(counts[c])
		} else {
			fallbacks++
		}
	}
	return best, fallbacks, nil
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

// checkSweep runs AutoK and the shared-draw reference from identically
// seeded sources and holds AutoK to the reference, bit for bit: the same
// winner, the same draws taken from Rand, progress once per scored k,
// and the same per-cluster means. It returns how many of the winner's
// clusters the reference scored exactly for being rare in the rounds.
func checkSweep(t *testing.T, label string, o Oracle, opts AutoKOptions) (fallbacks int) {
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
	want, fallbacks, err := sharedDrawReference(o, ref)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, label, got, want, opts.Rand, ref.Rand)
	if scored != total {
		t.Fatalf("%s: progress fired %d times, want %d", label, scored, total)
	}
	if len(got.ClusterSilhouettes) != len(want.ClusterSilhouettes) {
		t.Fatalf("%s: carries %d per-cluster means, want %d", label, len(got.ClusterSilhouettes), len(want.ClusterSilhouettes))
	}
	for c, w := range want.ClusterSilhouettes {
		if g := got.ClusterSilhouettes[c]; !sameBits(g, w) {
			t.Fatalf("%s: cluster %d carries %v, the reference says %v", label, c, g, w)
		}
	}
	return fallbacks
}

// TestAutoKMatchesPerKReference holds the sweep to the shared-draw
// reference on every storage, on both sides of LargeThreshold, on random
// data, on data with duplicated points and on data with a rare cluster.
func TestAutoKMatchesPerKReference(t *testing.T) {
	for _, dup := range []int{1, 2} {
		for _, tc := range sweepOracles(sweepVecs(150, dup, 41), 41) {
			for _, large := range []int{1000, 120} {
				checkSweep(t, fmt.Sprintf("%s dup=%d large=%d", tc.name, dup, large), tc.o,
					AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: large})
			}
		}
	}
	// Past 256 objects the Monte-Carlo scorer draws its rounds from Rand,
	// once, after CLARA's samples.
	for _, tc := range sweepOracles(sweepVecs(270, 1, 43), 43)[:2] {
		for _, large := range []int{1000, 200} {
			checkSweep(t, fmt.Sprintf("%s n=270 large=%d", tc.name, large), tc.o,
				AutoKOptions{KMin: 2, KMax: 5, LargeThreshold: large})
		}
	}
	// At the engine's crossovers, ten far-off objects among 2 000 are a
	// cluster of the winner's that the rounds measure too rarely: it
	// carries its exact mean.
	vecs := sweepVecs(2000, 1, 45)
	for i := range 10 {
		vecs[i*197] = []float64{100 + float64(i)/4, -100, 0, 20}
	}
	if checkSweep(t, "lazy n=2000 planted", NewLazyOracle(vecs, stats.Euclidean{}),
		AutoKOptions{KMin: 2, KMax: 8, LargeThreshold: DefaultPAMThreshold}) == 0 {
		t.Fatal("n=2000 planted: no cluster of the winner was rare in the rounds, so the exact fallback went unchecked")
	}
}

// TestClusterKMatchesPerKReference: a one-k sweep (KMin == KMax) is the
// reference's run of that k, at both ends of the range BUILD's
// prefix serves (2 and n-1) and between, on both sides of LargeThreshold.
func TestClusterKMatchesPerKReference(t *testing.T) {
	const n = 140
	o := ComputeDistMatrix(sweepVecs(n, 2, 51), stats.Euclidean{})
	for _, large := range []int{1000, 100} {
		for _, k := range []int{2, 5, n - 1} {
			checkSweep(t, fmt.Sprintf("large=%d k=%d", large, k), o,
				AutoKOptions{KMin: k, KMax: k, LargeThreshold: large})
		}
	}
}

// plantedVecs has what the row kernel must not be thrown by: missing
// values (as a -Inf cell becomes once z-scored), an infinity, exact
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

// pairWidths is the silhouette kernel's reference, object by object:
// s(i) for every validly labelled object i (NaN for the others), each
// cell read as a pair of o's pairMatrix, by the kernel's conventions —
// 0 for a lone member or with no other cluster to compare against.
func pairWidths(o Oracle, labels, sizes []int, k int) []float64 {
	widths, sums := make([]float64, len(labels)), make([]float64, k)
	pairs := pairMatrix(o)
	for i, li := range labels {
		if widths[i] = math.NaN(); li < 0 || li >= k {
			continue
		}
		if widths[i] = 0; sizes[li] <= 1 {
			continue
		}
		clear(sums)
		for j, lj := range labels {
			if j != i && lj >= 0 && lj < k {
				sums[lj] += pairs.Dist(i, j)
			}
		}
		a, b := sums[li]/float64(sizes[li]-1), math.Inf(1)
		for c := range sums {
			if v := sums[c] / float64(sizes[c]); c != li && sizes[c] > 0 && v < b {
				b = v
			}
		}
		if den := math.Max(a, b); !math.IsInf(b, 1) && den > 0 {
			widths[i] = (b - a) / den
		}
	}
	return widths
}

// addWidths adds pairWidths' widths, in object order, to the total and
// to each cluster's sum in perCluster, and counts in cnt the objects of
// a cluster with another member — the kernel's summation order and its
// counting.
func addWidths(widths []float64, labels, sizes []int, total float64, perCluster []float64, cnt []int) float64 {
	for i, w := range widths {
		if li := labels[i]; !math.IsNaN(w) {
			total += w
			perCluster[li] += w
			if sizes[li] > 1 {
				cnt[li]++
			}
		}
	}
	return total
}

// pairSilhouette is the kernel's reference over one labelling: the total
// of the widths, each cluster's sum and its count of measured widths.
func pairSilhouette(o Oracle, labels, sizes []int, k int) (total float64, perCluster []float64, cnt []int) {
	perCluster, cnt = make([]float64, k), make([]int, k)
	total = addWidths(pairWidths(o, labels, sizes, k), labels, sizes, 0, perCluster, cnt)
	return total, perCluster, cnt
}

// TestSilhouetteKernelMatchesPairReference runs the silhouette kernel,
// which takes a row per object, against the pairwise reference over a
// matrix, a matrix's subset, a lazy oracle and a lazy oracle's subset, with
// unlabelled objects and a singleton cluster in the labelling: same
// total over the same objects, same per-cluster sums, the same counts of
// measured widths (none for the singleton), bit for bit.
func TestSilhouetteKernelMatchesPairReference(t *testing.T) {
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
	vecs := sweepVecs(n, 2, 72)
	oracles := sweepOracles(vecs, 72)
	// The lazy subset's parent interleaves vecs with as many others.
	parent, idx := make([][]float64, 0, 2*n), make([]int, n)
	for i, other := range sweepVecs(n, 1, 73) {
		idx[i] = len(parent)
		parent = append(parent, other, vecs[i])
	}
	oracles = append(oracles, struct {
		name string
		o    Oracle
	}{"lazy subset", filledSubset(NewLazyOracle(parent, stats.Euclidean{}), idx)})
	for _, tc := range oracles {
		per, cnt := make([]float64, k), make([]int, k)
		total, counted := silhouetteKernel(tc.o, labels, sizes, make([]float64, n), make([]float64, k), per, cnt)
		wantTotal, wantPer, wantCnt := pairSilhouette(tc.o, labels, sizes, k)
		wantCounted := 0
		for _, l := range labels {
			if l >= 0 && l < k {
				wantCounted++
			}
		}
		if !sameBits(total, wantTotal) || fmt.Sprint(cnt) != fmt.Sprint(wantCnt) || counted != wantCounted {
			t.Fatalf("%s: kernel total %v over %d counts %v, reference total %v over %d counts %v", tc.name, total, counted, cnt, wantTotal, wantCounted, wantCnt)
		}
		for c := range per {
			if !sameBits(per[c], wantPer[c]) {
				t.Fatalf("%s: cluster %d sums to %v in the kernel, %v in the reference", tc.name, c, per[c], wantPer[c])
			}
		}
	}
}
