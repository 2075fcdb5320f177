package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// infTable is 120 rows in three groups over columns a, b and c, the
// first group highest on each, with +Inf in a on row 9 and in b on row
// 12, both of the first group. Before prep treated an infinite cell as
// missing, one such cell made every other cell of its column −Inf and
// their distances NaN, and two in different columns left no row with a
// finite distance sum, so BUILD had no medoid to pick.
func infTable() *store.Table {
	rng := rand.New(rand.NewSource(5))
	tab := store.NewTable("inf")
	for c, name := range []string{"a", "b", "c"} {
		vals := make([]float64, 120)
		for i := range vals {
			vals[i] = float64(2-i%3)*5 + rng.NormFloat64()
		}
		if c < 2 {
			vals[9+3*c] = math.Inf(1)
		}
		if err := tab.AddColumn(store.NewFloatColumnFrom(name, vals)); err != nil {
			panic(err)
		}
	}
	return tab
}

// infExplorer opens a cache-off session on infTable at the sample size
// and adds the theme of all three columns.
func infExplorer(t *testing.T, sample int) (*Explorer, int) {
	t.Helper()
	d, err := NewDataset(infTable(), Options{Seed: 1, SampleSize: sample, MapCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := d.Open()
	th, err := e.AddTheme([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return e, th
}

// TestInfiniteCellsMap: a theme with infinite cells in two of its
// columns maps like any other — a select whose sample is the whole
// table, and a zoom into the region holding row 9 from a select over a
// 45-row sample — with a finite silhouette, and the leaves of each map
// partition its selection. The description tree still sees the raw
// +Inf: both rows stay in their group's region.
func TestInfiniteCellsMap(t *testing.T) {
	assertMaps := func(what string, m *Map, err error, rows int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if m.K < 2 || math.IsNaN(m.Silhouette) || math.IsInf(m.Silhouette, 0) {
			t.Fatalf("%s: K = %d, silhouette %v, want a finite map of at least two clusters", what, m.K, m.Silhouette)
		}
		total := 0
		for _, l := range m.Root.Leaves() {
			total += l.Count()
		}
		if total != rows {
			t.Fatalf("%s: leaves hold %d rows, want the selection's %d", what, total, rows)
		}
	}
	leafOf := func(m *Map, row int) *Region {
		for _, l := range m.Root.Leaves() {
			if slices.Contains(l.RowIDs().AppendTo(nil), row) {
				return l
			}
		}
		t.Fatalf("no leaf holds row %d", row)
		return nil
	}

	e, th := infExplorer(t, 200)
	m, err := e.SelectTheme(th)
	assertMaps("select", m, err, 120)
	for _, row := range []int{9, 12} {
		if l := leafOf(m, row); !slices.Contains(l.RowIDs().AppendTo(nil), 0) {
			t.Errorf("row %d's leaf %s does not hold row 0 of its group", row, l.Describe())
		}
	}

	e, th = infExplorer(t, 45)
	m, err = e.SelectTheme(th)
	assertMaps("select over 45 rows", m, err, 120)
	l := leafOf(m, 9)
	z, err := e.Zoom(l.Path...)
	assertMaps("zoom", z, err, l.Count())
}
