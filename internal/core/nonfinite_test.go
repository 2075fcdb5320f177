package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/store"
)

// infTable is 120 rows in three groups over columns a, b and c, the
// first group highest on each, with +Inf in a on row 9 and in b on row
// 12, both of the first group. One infinite cell alone maps: prep makes
// it NaN and every other cell of its column −Inf, so its row keeps a
// finite distance to every row. Two in different columns leave no row
// with a finite distance sum, and BUILD has no medoid to pick.
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

// TestNoFiniteDistanceFailsTheBuild: a map over a sample holding both
// infinite cells fails with cluster.ErrNoFiniteDistance inside core's
// clustering error — a select whose sample is the whole table, and a
// zoom into the region holding both rows from a select whose sample
// held at most one — and the session keeps its state.
func TestNoFiniteDistanceFailsTheBuild(t *testing.T) {
	assertNoFinite := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, cluster.ErrNoFiniteDistance) {
			t.Fatalf("%s: err = %v, want cluster.ErrNoFiniteDistance", what, err)
		}
		if want := "core: clustering theme"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
			t.Fatalf("%s: err = %q, want it inside core's clustering error", what, err)
		}
	}

	e, th := infExplorer(t, 200)
	_, err := e.SelectTheme(th)
	assertNoFinite("select", err)
	if len(e.History()) != 1 {
		t.Fatalf("a failed select left %d states", len(e.History()))
	}

	e, th = infExplorer(t, 45)
	m, err := e.SelectTheme(th)
	if err != nil {
		t.Fatalf("select over a 45-row sample: %v", err)
	}
	var both *Region
	for _, l := range m.Root.Leaves() {
		if ids := l.RowIDs().AppendTo(nil); slices.Contains(ids, 9) && slices.Contains(ids, 12) {
			both = l
		}
	}
	if both == nil || both.Count() > 45 {
		t.Fatalf("no region of at most 45 rows holds rows 9 and 12: %s", fmt.Sprint(m.Root.Leaves()))
	}
	_, err = e.Zoom(both.Path...)
	assertNoFinite("zoom", err)
	if e.CurrentMap() != m {
		t.Fatal("a failed zoom moved the session")
	}
}
