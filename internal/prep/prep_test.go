package prep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
)

func mixedTable() *store.Table {
	t := store.NewTable("mixed")
	ids := make([]int64, 100)
	incomes := make([]float64, 100)
	cats := make([]string, 100)
	flags := make([]bool, 100)
	for i := range ids {
		ids[i] = int64(i)
		incomes[i] = float64(20 + i%10)
		cats[i] = []string{"low", "mid", "high"}[i%3]
		flags[i] = i%2 == 0
	}
	t.MustAddColumn(store.NewIntColumnFrom("id", ids))
	t.MustAddColumn(store.NewFloatColumnFrom("income", incomes))
	t.MustAddColumn(store.NewStringColumnFrom("band", cats))
	t.MustAddColumn(store.NewBoolColumnFrom("flag", flags))
	return t
}

func TestFitDropsKeys(t *testing.T) {
	tab := mixedTable()
	p, err := Fit(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p.Dropped() {
		if d == "id" {
			return
		}
	}
	t.Errorf("id should be dropped as a key; dropped = %v", p.Dropped())
}

func TestTransformShapeAndNames(t *testing.T) {
	tab := mixedTable()
	p, vecs, err := FitTransform(tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// income (1) + band dummies (3) + flag (1) = 5 dims.
	if p.Dim() != 5 {
		t.Fatalf("dim = %d, want 5; names = %v", p.Dim(), p.names)
	}
	if len(vecs) != 100 || len(vecs[0]) != 5 {
		t.Fatalf("vecs shape = %dx%d", len(vecs), len(vecs[0]))
	}
	names := p.names
	wantNames := map[string]bool{"income": true, "band=high": true, "band=low": true, "band=mid": true, "flag": true}
	for _, n := range names {
		if !wantNames[n] {
			t.Errorf("unexpected feature name %q", n)
		}
	}
}

// TestFitScalerMatchesStats: the scaler Fit learns over a numeric
// column with stats.FitScaler, read in place, carries the bits
// stats.Mean and stats.StdDev give over a copy of the column, with Center 0 for an all-null column
// and Scale 1 for a constant one; Apply inverts through Center and
// Scale, and passes NaN through.
func TestFitScalerMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 300 {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		ints := make([]int64, n)
		for i := range vals {
			switch {
			case trial%5 == 0:
				vals[i] = 3.25 // constant
			case trial%7 == 0 || rng.Intn(6) == 0:
				vals[i] = math.NaN() // all-null, or a null
			default:
				vals[i] = rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)) + float64(rng.Intn(100))
			}
			ints[i] = int64(rng.Intn(1000) - 500)
		}
		intCol := store.NewIntColumnFrom("i", ints)
		for _, c := range []store.Column{store.NewFloatColumnFrom("f", vals), intCol} {
			copied := make([]float64, c.Len())
			for i := range copied {
				copied[i] = c.Float(i)
			}
			want := stats.Scaler{Center: stats.Mean(copied), Scale: 1}
			if math.IsNaN(want.Center) {
				want.Center = 0
			}
			if sd := stats.StdDev(copied); sd > 0 {
				want.Scale = sd
			}
			got := stats.FitScaler(c)
			if math.Float64bits(got.Center) != math.Float64bits(want.Center) || math.Float64bits(got.Scale) != math.Float64bits(want.Scale) {
				t.Fatalf("trial %d, column %s: fit %+v, stats give %+v", trial, c.Name(), got, want)
			}
			for _, probe := range []float64{-7.5, 0, 42} {
				if back := got.Apply(probe)*got.Scale + got.Center; math.Abs(back-probe) > 1e-9*(1+math.Abs(probe)) {
					t.Fatalf("trial %d: %g round-trips to %g", trial, probe, back)
				}
			}
			if !math.IsNaN(got.Apply(math.NaN())) {
				t.Fatal("NaN should pass through")
			}
		}
	}
}

func TestTransformNormalizes(t *testing.T) {
	tab := mixedTable()
	p, vecs, err := FitTransform(tab, []string{"income"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 1 {
		t.Fatal("want single dim")
	}
	// Z-scored column: mean ~0, std ~1.
	col := make([]float64, len(vecs))
	for i, v := range vecs {
		col[i] = v[0]
	}
	if m := stats.Mean(col); math.Abs(m) > 1e-9 {
		t.Errorf("normalized mean = %g", m)
	}
	if s := stats.StdDev(col); math.Abs(s-1) > 1e-9 {
		t.Errorf("normalized std = %g", s)
	}
}

func TestDummyEncoding(t *testing.T) {
	tab := mixedTable()
	p, vecs, err := FitTransform(tab, []string{"band"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 3 {
		t.Fatalf("dim = %d", p.Dim())
	}
	for r, v := range vecs {
		ones := 0.0
		for _, x := range v {
			ones += x
		}
		if ones != 1 {
			t.Fatalf("row %d dummies sum to %g, want exactly one hot", r, ones)
		}
	}
}

func TestMissingValueImputation(t *testing.T) {
	tab := store.NewTable("t")
	c := store.NewFloatColumn("x")
	c.Append(0)
	c.Append(10)
	c.AppendNull()
	tab.MustAddColumn(c)

	p, vecs, err := FitTransform(tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 1 {
		t.Fatal("dim wrong")
	}
	// z-scored over {0, 10}: mean 5, deviation 5. The null takes the mean.
	if vecs[0][0] != -1 || vecs[1][0] != 1 {
		t.Errorf("scaled = %g, %g, want -1, 1", vecs[0][0], vecs[1][0])
	}
	if vecs[2][0] != 0 {
		t.Errorf("imputed = %g, want the mean's 0", vecs[2][0])
	}
}

// TestInfiniteCellIsMissing: an infinite cell of a numeric column
// prepares exactly as a null there would — left out of the scaler's fit
// and imputed with the finite mean — so every distance between prepared
// rows is finite. A z-score over the +Inf made every other cell of its
// column −Inf, and the distance between rows 0 and 1 NaN.
func TestInfiniteCellIsMissing(t *testing.T) {
	a := []float64{1.5, 2, 4.25, 0, 3, 5}
	b := []float64{0.5, 1, 0.75, 2, 1.25, 0}
	table := func(cell func(c *store.FloatColumn)) *store.Table {
		tab := store.NewTable("inf")
		ca, cb := store.NewFloatColumn("a"), store.NewFloatColumn("b")
		for i := range a {
			if i == 3 {
				cell(ca)
			} else {
				ca.Append(a[i])
			}
			cb.Append(b[i])
		}
		tab.MustAddColumn(ca)
		tab.MustAddColumn(cb)
		return tab
	}
	_, want, err := FitTransform(table((*store.FloatColumn).AppendNull), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		tab := table(func(c *store.FloatColumn) { c.Append(inf) })
		_, vecs, err := FitTransform(tab, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range vecs {
			for j := i + 1; j < len(vecs); j++ {
				if d := (stats.Euclidean{}).Dist(vecs[i], vecs[j]); math.IsNaN(d) || math.IsInf(d, 0) {
					t.Fatalf("%v cell: d(%d,%d) = %v, want finite", inf, i, j, d)
				}
			}
			for d, x := range vecs[i] {
				if math.Float64bits(x) != math.Float64bits(want[i][d]) {
					t.Fatalf("%v cell: row %d dim %d prepares to %v, a null there to %v", inf, i, d, x, want[i][d])
				}
			}
		}
		if got := tab.ColumnByName("a").Float(3); got != inf {
			t.Fatalf("the table's cell holds %v after prep, want the raw %v", got, inf)
		}
	}
}

func TestImputationNormalizedScale(t *testing.T) {
	// With z-score normalization, an imputed mean must land at 0.
	tab := store.NewTable("t")
	c := store.NewFloatColumn("x")
	for _, v := range []float64{1, 2, 3, 4, 5} {
		c.Append(v)
	}
	c.AppendNull()
	tab.MustAddColumn(c)
	_, vecs, err := FitTransform(tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vecs[5][0]) > 1e-9 {
		t.Errorf("imputed z-scored mean = %g, want 0", vecs[5][0])
	}
}

func TestNullCategoricalAllZero(t *testing.T) {
	tab := store.NewTable("t")
	c := store.NewStringColumn("s")
	c.Append("a")
	c.Append("b")
	c.AppendNull()
	c.Append("a")
	c.Append("b")
	tab.MustAddColumn(c)
	_, vecs, err := FitTransform(tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range vecs[2] {
		if x != 0 {
			t.Errorf("null categorical row = %v, want all zeros", vecs[2])
		}
	}
}

func TestHighCardinalityDropped(t *testing.T) {
	tab := store.NewTable("t")
	vals := make([]string, 100)
	keep := make([]string, 100)
	for i := range vals {
		// 80 distinct values: too many levels to dummy-encode, yet
		// repeated, so the column is no key.
		vals[i] = fmt.Sprintf("user-%d", i%80)
		keep[i] = []string{"x", "y"}[i%2]
	}
	tab.MustAddColumn(store.NewStringColumnFrom("freetext", vals))
	tab.MustAddColumn(store.NewStringColumnFrom("cat", keep))
	if store.IsLikelyKey(tab.ColumnByName("freetext")) {
		t.Fatal("fixture: freetext must not be a key")
	}
	p, err := Fit(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range p.UsedColumns() {
		if u == "freetext" {
			t.Error("high-cardinality text should be dropped")
		}
	}
	if len(p.UsedColumns()) != 1 || p.UsedColumns()[0] != "cat" {
		t.Errorf("used = %v", p.UsedColumns())
	}
}

func TestConstantCategoricalDropped(t *testing.T) {
	tab := store.NewTable("t")
	tab.MustAddColumn(store.NewStringColumnFrom("const", []string{"a", "a", "a", "a"}))
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2, 3, 4}))
	p, err := Fit(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.UsedColumns()) != 1 || p.UsedColumns()[0] != "x" {
		t.Errorf("used = %v, dropped = %v", p.UsedColumns(), p.Dropped())
	}
}

func TestMaxDummyLevels(t *testing.T) {
	tab := store.NewTable("t")
	vals := make([]string, 300)
	for i := range vals {
		vals[i] = string(rune('a' + i%30)) // 30 levels
	}
	tab.MustAddColumn(store.NewStringColumnFrom("c", vals))
	p, err := Fit(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != maxDummyLevels {
		t.Errorf("dim = %d, want capped %d", p.Dim(), maxDummyLevels)
	}
}

func TestErrors(t *testing.T) {
	tab := mixedTable()
	if _, err := Fit(tab, []string{"zzz"}); err == nil {
		t.Error("unknown column should fail")
	}
	only := store.NewTable("keys")
	ids := make([]int64, 50)
	for i := range ids {
		ids[i] = int64(i)
	}
	only.MustAddColumn(store.NewIntColumnFrom("id", ids))
	if _, err := Fit(only, nil); err == nil {
		t.Error("table with only a key column should fail")
	}
	p, _ := Fit(tab, []string{"income"})
	other := store.NewTable("other")
	other.MustAddColumn(store.NewFloatColumnFrom("different", []float64{1}))
	if _, _, err := p.Transform(other, nil, nil); err == nil {
		t.Error("transform on incompatible table should fail")
	}
}

func TestTransformOnNewRows(t *testing.T) {
	// Fit on one table, transform another with the same schema: scalers
	// must come from the fit table.
	fitTab := store.NewTable("fit")
	fitTab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{0, 10}))
	newTab := store.NewTable("new")
	newTab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{5, 15}))
	p, err := Fit(fitTab, nil)
	if err != nil {
		t.Fatal(err)
	}
	vecs, _, err := p.Transform(newTab, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vecs[0][0] != 0 || vecs[1][0] != 2 {
		t.Errorf("transform = %g, %g, want 0, 2 on the fitted mean 5, deviation 5", vecs[0][0], vecs[1][0])
	}
}

// TestTransformIntoStorage: Transform writes into the storage it is
// handed — every row a Dim-capped window of the one slab — gives the
// vectors a fresh call gives, and a later call on no more rows reuses
// that storage instead of allocating.
func TestTransformIntoStorage(t *testing.T) {
	tab := store.NewTable("t")
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2, 3, 4}))
	tab.MustAddColumn(store.NewStringColumnFrom("s", []string{"a", "b", "a", "b"}))
	p, err := Fit(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Transform(tab, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vecs, slab, err := p.Transform(tab, make([][]float64, 0, 8), make([]float64, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range vecs {
		if cap(v) != p.Dim() || &v[0] != &slab[r*p.Dim()] {
			t.Fatalf("row %d: cap %d, not the slab's window %d", r, cap(v), r)
		}
		for j := range v {
			if v[j] != want[r][j] {
				t.Fatalf("row %d: %v, want %v", r, v, want[r])
			}
		}
	}
	again, slab2, err := p.Transform(tab, vecs, slab)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &vecs[0] || &slab2[0] != &slab[0] {
		t.Error("a second transform into the first's storage reallocated it")
	}
}

func TestBoolNullMidpoint(t *testing.T) {
	tab := store.NewTable("t")
	c := store.NewBoolColumn("b")
	c.Append(true)
	c.Append(false)
	c.AppendNull()
	tab.MustAddColumn(c)
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2, 3}))
	_, vecs, err := FitTransform(tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bi := -1
	p, _ := Fit(tab, nil)
	for i, n := range p.names {
		if n == "b" {
			bi = i
		}
	}
	if bi < 0 {
		t.Fatal("bool feature missing")
	}
	if vecs[2][bi] != 0.5 {
		t.Errorf("null bool = %g, want 0.5", vecs[2][bi])
	}
}
