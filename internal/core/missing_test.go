package core

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/store"
)

// TestMapWithMissingValues drives the full pipeline on data with 15%
// missing cells: preprocessing must impute, clustering must not NaN out,
// and the tree must still recover most of the planted structure (the
// paper's first map requirement: "it must cope with mixed data,
// potentially including missing values").
func TestMapWithMissingValues(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{
		N: 1200, K: 3, Dims: 6, Sep: 8, MissingRate: 0.15,
	}, rng)
	e, err := NewExplorer(ds.Table, Options{Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme(ds.Table.ColumnNames())
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]int, ds.Table.NumRows())
	for i := range pred {
		pred[i] = -1
	}
	for _, l := range m.Root.Leaves() {
		l.RowIDs().Each(func(r int) {
			pred[r] = l.ClusterID
		})
	}
	if ari := eval.AdjustedRandIndex(ds.Truth["rows"], pred); ari < 0.7 {
		t.Errorf("ARI with 15%% missing = %.3f, want >= 0.7", ari)
	}
	// Regions still cover every row (missing values route right in trees).
	total := 0
	for _, l := range m.Root.Leaves() {
		total += l.Count()
	}
	if total != 1200 {
		t.Errorf("regions cover %d rows", total)
	}
	// Zoom into a right-branch region (whose condition carries the
	// null-matching complement) and confirm the implicit query still
	// executes and returns exactly the selection.
	var rightLeaf *Region
	for _, l := range m.Root.Leaves() {
		if len(l.Path) > 0 && l.Path[len(l.Path)-1] == 1 {
			rightLeaf = l
			break
		}
	}
	if rightLeaf == nil {
		t.Fatal("no right-branch leaf")
	}
	if _, err := e.Zoom(rightLeaf.Path...); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteQuery()
	if err != nil {
		t.Fatalf("executing %q: %v", e.Query(), err)
	}
	if res.NumRows() != e.State().Rows.Len() {
		t.Errorf("query rows %d != selection %d (query %q)",
			res.NumRows(), e.State().Rows.Len(), e.Query())
	}
}

// TestMixedTypeMap drives the pipeline on a table mixing numeric,
// categorical and boolean columns where the cluster signal lives in the
// categorical column.
func TestMixedTypeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 900
	cat := store.NewStringColumn("segment")
	num := store.NewFloatColumn("value")
	flag := store.NewBoolColumn("active")
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		truth[i] = c
		cat.Append([]string{"retail", "wholesale", "online"}[c])
		num.Append(float64(c)*5 + rng.NormFloat64())
		flag.Append(c == 1)
	}
	tab := store.NewTable("mixed")
	tab.MustAddColumn(cat)
	tab.MustAddColumn(num)
	tab.MustAddColumn(flag)

	e, err := NewExplorer(tab, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"segment", "value", "active"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]int, n)
	for i := range pred {
		pred[i] = -1
	}
	for _, l := range m.Root.Leaves() {
		l.RowIDs().Each(func(r int) {
			pred[r] = l.ClusterID
		})
	}
	if ari := eval.AdjustedRandIndex(truth, pred); ari < 0.9 {
		t.Errorf("mixed-type ARI = %.3f", ari)
	}
}

// TestThemeDetectionWithNulls ensures the dependency graph tolerates
// columns with many missing values.
func TestThemeDetectionWithNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	a := store.NewFloatColumn("a")
	b := store.NewFloatColumn("b")
	c := store.NewFloatColumn("c")
	for i := 0; i < n; i++ {
		base := rng.NormFloat64()
		if rng.Float64() < 0.3 {
			a.AppendNull()
		} else {
			a.Append(base)
		}
		if rng.Float64() < 0.3 {
			b.AppendNull()
		} else {
			b.Append(base * 2)
		}
		c.Append(rng.NormFloat64())
	}
	tab := store.NewTable("nulls")
	tab.MustAddColumn(a)
	tab.MustAddColumn(b)
	tab.MustAddColumn(c)
	e, err := NewExplorer(tab, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	g := e.DependencyGraph()
	ia, ib, ic := g.Index("a"), g.Index("b"), g.Index("c")
	if g.Weight(ia, ib) <= g.Weight(ia, ic) {
		t.Errorf("dependent pair weight %.3f should beat noise pair %.3f",
			g.Weight(ia, ib), g.Weight(ia, ic))
	}
}
