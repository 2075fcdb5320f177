package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDiscretizerEqualFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() // skewed
	}
	d := NewDiscretizer(vals, 10)
	counts := make([]int, len(d.Cuts)+1)
	for _, v := range vals {
		counts[d.Bin(v)]++
	}
	if len(counts) != 10 {
		t.Fatalf("bins = %d, want 10", len(counts))
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("equal-frequency bin %d holds %d values, want ~1000", b, c)
		}
	}
	if d.Bin(math.NaN()) != -1 {
		t.Error("NaN should bin to -1")
	}
	// Values below/above the fitted range clamp to the end bins.
	if d.Bin(-100) != 0 || d.Bin(1e9) != 9 {
		t.Error("out-of-range values should clamp")
	}
}

func TestDiscretizerDegenerate(t *testing.T) {
	if d := NewDiscretizer([]float64{5, 5, 5}, 10); len(d.Cuts) > 1 {
		t.Errorf("constant input should collapse to one cut, got %v", d.Cuts)
	}
	if d := NewDiscretizer(nil, 10); len(d.Cuts) != 0 {
		t.Error("empty input should give one bin")
	}
	if d := NewDiscretizer([]float64{math.NaN()}, 10); len(d.Cuts) != 0 {
		t.Error("all-NaN input should give one bin")
	}
}

func TestDiscretizerBinsMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		d := NewDiscretizer(raw, 8)
		// Bin must be monotone nondecreasing in the value.
		a, b := raw[0], raw[1]
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return d.Bin(a) <= d.Bin(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]int{0, 0, 0, 0}); h != 0 {
		t.Errorf("constant entropy = %g, want 0", h)
	}
	if h := Entropy([]int{0, 1, 0, 1}); !almost(h, math.Ln2, 1e-12) {
		t.Errorf("fair coin entropy = %g, want ln2", h)
	}
	if h := Entropy([]int{0, 1, 2, 3}); !almost(h, math.Log(4), 1e-12) {
		t.Errorf("uniform-4 entropy = %g, want ln4", h)
	}
	if h := Entropy([]int{-1, -1, 0, 1}); !almost(h, math.Ln2, 1e-12) {
		t.Error("missing labels must be skipped")
	}
	if h := Entropy(nil); h != 0 {
		t.Error("empty entropy should be 0")
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	x := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	mi := MutualInformation(x, x)
	if !almost(mi, Entropy(x), 1e-12) {
		t.Errorf("I(X;X) = %g, want H(X) = %g", mi, Entropy(x))
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50000
	x := make([]int, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	mi := MutualInformation(x, y)
	if mi > 0.01 {
		t.Errorf("independent MI = %g, want ~0", mi)
	}
}

func TestMutualInformationMissing(t *testing.T) {
	x := []int{0, 1, -1, 0, 1}
	y := []int{0, 1, 1, -1, 1}
	// Only pairs (0,0), (1,1), (1,1) survive: perfectly dependent.
	mi := MutualInformation(x, y)
	want := Entropy([]int{0, 1, 1})
	if !almost(mi, want, 1e-12) {
		t.Errorf("MI with missing = %g, want %g", mi, want)
	}
}

func TestNormalizedMIBounds(t *testing.T) {
	x := []int{0, 1, 2, 0, 1, 2}
	if v := NormalizedMI(x, x); !almost(v, 1, 1e-9) {
		t.Errorf("NMI(X,X) = %g, want 1", v)
	}
	if v := NormalizedMI(x, []int{0, 0, 0, 0, 0, 0}); v != 0 {
		t.Errorf("NMI with constant = %g, want 0", v)
	}
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(5)
			b[i] = r.Intn(5)
		}
		v := NormalizedMI(a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMISymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
			b[i] = (a[i] + r.Intn(2)) % 4
		}
		return almost(MutualInformation(a, b), MutualInformation(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMIDensePathEquivalence: MutualInformation has an array-backed fast
// path for small alphabets and a map-backed path for large ones. MI is
// invariant under injective relabeling, so shifting labels above the
// dense limit (forcing the map path) must not change the value.
func TestMIDensePathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(400)
		x := make([]int, n)
		y := make([]int, n)
		xBig := make([]int, n)
		yBig := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = r.Intn(8)
			y[i] = (x[i] + r.Intn(4)) % 8
			if r.Float64() < 0.05 {
				x[i] = -1 // missing survives both paths
			}
			xBig[i] = x[i]
			yBig[i] = y[i]
			if x[i] >= 0 {
				xBig[i] = x[i]*1000 + 500 // force map path (max >= 256)
			}
			yBig[i] = y[i]*1000 + 500
		}
		dense := MutualInformation(x, y)
		sparse := MutualInformation(xBig, yBig)
		return almost(dense, sparse, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// columnDependency is the pairwise measure the dependency graph is built
// from (paper Fig. 2): NMI over equal-frequency discretized columns.
func columnDependency(a, b store.Column) float64 {
	return NormalizedMI(DiscretizeColumn(a, DefaultBins), DiscretizeColumn(b, DefaultBins))
}

func TestColumnDependencyNonLinear(t *testing.T) {
	// y = x^2 is non-linear: Pearson ~0 on symmetric x but NMI high.
	// This is exactly why the paper picked MI (§3).
	rng := rand.New(rand.NewSource(4))
	n := 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()*2 - 1
		ys[i] = xs[i] * xs[i]
		zs[i] = rng.Float64()
	}
	cx := store.NewFloatColumnFrom("x", xs)
	cy := store.NewFloatColumnFrom("y", ys)
	cz := store.NewFloatColumnFrom("z", zs)
	depXY := columnDependency(cx, cy)
	depXZ := columnDependency(cx, cz)
	if depXY < 0.3 {
		t.Errorf("NMI(x, x^2) = %g, want high", depXY)
	}
	if depXZ > 0.05 {
		t.Errorf("NMI(x, noise) = %g, want ~0", depXZ)
	}
	if r := Pearson(xs, ys); math.Abs(r) > 0.1 {
		t.Errorf("Pearson(x, x^2) = %g, expected ~0 on symmetric input", r)
	}
}

func TestColumnDependencyMixedTypes(t *testing.T) {
	// A categorical column that is a deterministic function of a numeric one.
	n := 3000
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, n)
	cats := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 10
		switch {
		case xs[i] < 3:
			cats[i] = "low"
		case xs[i] < 7:
			cats[i] = "mid"
		default:
			cats[i] = "high"
		}
	}
	dep := columnDependency(store.NewFloatColumnFrom("x", xs), store.NewStringColumnFrom("c", cats))
	if dep < 0.4 {
		t.Errorf("mixed-type dependency = %g, want high", dep)
	}
}

func TestDiscretizeColumnTypes(t *testing.T) {
	sc := store.NewStringColumnFrom("s", []string{"a", "b", "a"})
	sc.AppendNull()
	got := DiscretizeColumn(sc, 5)
	if got[0] != got[2] || got[0] == got[1] || got[3] != -1 {
		t.Errorf("string discretize = %v", got)
	}
	bc := store.NewBoolColumnFrom("b", []bool{true, false})
	bc.AppendNull()
	if g := DiscretizeColumn(bc, 5); g[0] != 1 || g[1] != 0 || g[2] != -1 {
		t.Errorf("bool discretize = %v", g)
	}
	fc := store.NewFloatColumn("f")
	fc.Append(1)
	fc.AppendNull()
	fc.Append(100)
	if g := DiscretizeColumn(fc, 4); g[1] != -1 || g[0] == g[2] {
		t.Errorf("float discretize = %v", g)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); !almost(r, 1, 1e-12) {
		t.Errorf("perfect positive r = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); !almost(r, -1, 1e-12) {
		t.Errorf("perfect negative r = %g", r)
	}
	if r := Pearson(x, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Errorf("constant r = %g, want 0", r)
	}
	withNaN := []float64{2, math.NaN(), 6, 8, 10}
	if r := Pearson(x, withNaN); !almost(r, 1, 1e-12) {
		t.Errorf("NaN-skipping r = %g", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Error("single pair should return 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Monotone non-linear relation: Spearman 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	if r := Spearman(x, y); !almost(r, 1, 1e-12) {
		t.Errorf("spearman = %g, want 1", r)
	}
	if r := Pearson(x, y); r >= 0.999 {
		t.Errorf("pearson = %g, expected < 1 for convex curve", r)
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(r[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
	r2 := Ranks([]float64{5, math.NaN(), 1})
	if !math.IsNaN(r2[1]) || r2[0] != 2 || r2[2] != 1 {
		t.Errorf("ranks with NaN = %v", r2)
	}
}

func TestMeanStd(t *testing.T) {
	vals := []float64{1, 2, 3, 4, math.NaN()}
	if m := Mean(vals); !almost(m, 2.5, 1e-12) {
		t.Errorf("mean = %g", m)
	}
	if s := StdDev(vals); !almost(s, math.Sqrt(1.25), 1e-12) {
		t.Errorf("std = %g", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Error("empty aggregates should be NaN")
	}
}

func TestScalers(t *testing.T) {
	vals := []float64{0, 5, 10}
	z := FitScaler(store.NewFloatColumnFrom("v", vals))
	if !almost(z.Apply(5), 0, 1e-12) {
		t.Errorf("zscore center = %g", z.Apply(5))
	}
	if !almost(z.Apply(10), math.Sqrt(1.5), 1e-12) {
		t.Errorf("zscore of the max = %g, want sqrt(1.5)", z.Apply(10))
	}
	con := FitScaler(store.NewFloatColumnFrom("v", []float64{7, 7}))
	if con.Apply(7) != 0 || math.IsNaN(con.Apply(8)) {
		t.Error("constant input must stay finite")
	}
	if empty := FitScaler(store.NewFloatColumnFrom("v", []float64{math.NaN()})); empty.Apply(3) != 3 {
		t.Error("an all-NaN input must fit the identity")
	}
	if !math.IsNaN(z.Apply(math.NaN())) {
		t.Error("NaN should pass through")
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	f := func(vals []float64, probe float64) bool {
		if math.IsNaN(probe) || math.Abs(probe) > 1e100 {
			return true
		}
		for _, v := range vals {
			if !math.IsNaN(v) && math.Abs(v) > 1e100 {
				return true
			}
		}
		s := FitScaler(store.NewFloatColumnFrom("v", vals))
		got := s.Apply(probe)*s.Scale + s.Center
		return math.Abs(got-probe) <= 1e-6*(1+math.Abs(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEuclidean(t *testing.T) {
	e := Euclidean{}
	if d := e.Dist([]float64{0, 0}, []float64{3, 4}); !almost(d, 5, 1e-12) {
		t.Errorf("euclidean = %g, want 5", d)
	}
	if d := e.Dist([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	// NaN dimension skipped with rescale: only dim 0 observed out of 2.
	d := e.Dist([]float64{3, math.NaN()}, []float64{0, 1})
	if !almost(d, math.Sqrt(9*2), 1e-12) {
		t.Errorf("NaN-rescaled = %g, want sqrt(18)", d)
	}
	if d := e.Dist([]float64{math.NaN()}, []float64{1}); d != 0 {
		t.Error("all-missing pairs should be 0")
	}
}

// TestDistRowMatchesDistBitForBit holds the row form to its contract —
// dst[j] is Dist(a, bs[j]), same bits — where the four-wide kernel could
// slip: missing values on either side, infinities (Inf - Inf is a NaN no
// value was missing for), magnitudes whose sums round, every row length
// modulo four, no dimensions, one vector, and a vector of another length.
func TestDistRowMatchesDistBitForBit(t *testing.T) {
	e := Euclidean{}
	rng := rand.New(rand.NewSource(11))
	vec := func(dims int, nanEvery int) []float64 {
		v := make([]float64, dims)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if nanEvery > 0 && rng.Intn(nanEvery) == 0 {
				v[i] = math.NaN()
			}
		}
		return v
	}
	check := func(label string, a []float64, bs [][]float64) {
		t.Helper()
		dst := make([]float64, len(bs))
		e.DistRow(a, bs, dst)
		for j, b := range bs {
			if want := e.Dist(a, b); math.Float64bits(dst[j]) != math.Float64bits(want) {
				t.Fatalf("%s: DistRow[%d] = %v (%#x), Dist = %v (%#x)", label, j, dst[j], math.Float64bits(dst[j]), want, math.Float64bits(want))
			}
		}
	}
	for _, dims := range []int{0, 1, 3, 40} {
		for rows := 0; rows <= 9; rows++ {
			for _, nanEvery := range []int{0, 6} {
				bs := make([][]float64, rows)
				for j := range bs {
					bs[j] = vec(dims, nanEvery)
				}
				label := fmt.Sprintf("dims=%d rows=%d nanEvery=%d", dims, rows, nanEvery)
				check(label, vec(dims, 0), bs)
				check(label+" NaN in a", vec(dims, 2), bs)
			}
		}
	}
	inf := math.Inf(1)
	check("infinities", []float64{inf, 1, 2}, [][]float64{{inf, 0, 0}, {-inf, 0, 0}, {0, 0, 0}, {math.NaN(), inf, 0}, {1, 2, 3}})
	check("overflow", []float64{1e200, -1e200}, [][]float64{{-1e200, 1e200}, {0, 0}, {1e200, 1e200}, {5, 5}})
	check("longer b", []float64{1, 2}, [][]float64{{1, 2}, {3, 4}, {5, 6, 7}, {8, 9}, {0, 0}})
}

func TestDistanceProperties(t *testing.T) {
	metrics := []Distance{Euclidean{}}
	f := func(a, b [3]float64) bool {
		av, bv := a[:], b[:]
		for i := range av {
			if math.IsNaN(av[i]) || math.Abs(av[i]) > 1e100 || math.IsNaN(bv[i]) || math.Abs(bv[i]) > 1e100 {
				return true
			}
		}
		for _, m := range metrics {
			dab, dba := m.Dist(av, bv), m.Dist(bv, av)
			if dab < 0 || !almost(dab, dba, 1e-9*(1+dab)) {
				return false
			}
			if m.Dist(av, av) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceNames(t *testing.T) {
	names := map[string]Distance{"euclidean": Euclidean{}}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("name = %q, want %q", m.Name(), want)
		}
	}
}
