package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// rowsKey is the engine's cache key for a selection given in any order:
// the store.RowsOf set of an ascending copy.
func rowsKey(rows []int, theme int) mapKey {
	sorted := slices.Clone(rows)
	slices.Sort(sorted)
	return mapKey{rows: store.RowsOf(sorted).Fingerprint(), n: len(rows), theme: theme}
}

// TestFingerprintRowsOrderInsensitive is the regression test for the
// cache-key canonicalization bugfix: the same row set must fingerprint
// identically however it is ordered, and distinct sets must (with
// overwhelming probability) differ.
func TestFingerprintRowsOrderInsensitive(t *testing.T) {
	rows := []int{3, 1, 4, 1590, 92, 65, 35}
	shuffled := append([]int(nil), rows...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if rowsKey(rows, 1) != rowsKey(shuffled, 1) {
		t.Errorf("same set, different order: keys differ (%+v vs %+v)", rowsKey(rows, 1), rowsKey(shuffled, 1))
	}
	// Canonicalization must not collapse genuinely different sets.
	other := append([]int(nil), rows...)
	other[0] = 5
	if rowsKey(rows, 1).rows == rowsKey(other, 1).rows {
		t.Error("different sets share a fingerprint")
	}
	if rowsKey([]int{4, 3, 2, 1}, 1) != rowsKey([]int{1, 2, 3, 4}, 1) {
		t.Error("reversed set misses the canonical key")
	}
}

// TestMapCacheHitAcrossRowOrder: a map cached under one ordering of the
// selection must be served for the same selection in any other ordering
// — the end-to-end shape of the fingerprint bugfix.
func TestMapCacheHitAcrossRowOrder(t *testing.T) {
	c := newMapCache(4)
	rows := []int{9, 4, 7, 2}
	m := &Map{K: 2, Root: &Region{}}
	c.put(rowsKey(rows, 1), m, nil)
	if got := c.get(rowsKey([]int{2, 4, 7, 9}, 1)); got != m {
		t.Fatal("same selection in ascending order missed the cache")
	}
	if got := c.get(rowsKey([]int{7, 9, 2, 4}, 1)); got != m {
		t.Fatal("same selection in scrambled order missed the cache")
	}
	if hits, misses := c.hits, c.misses; hits != 2 || misses != 0 {
		t.Errorf("hits/misses = %d/%d, want 2/0", hits, misses)
	}
	if got := c.get(rowsKey([]int{2, 4, 7, 8}, 1)); got != nil {
		t.Error("different selection hit the cache")
	}
}

// TestFingerprintOncePerSelection: a region's set is collected once and
// is the very one the zoom's state, a projection of it and a
// rollback-then-rezoom read, so each of them keys its lookup on that
// set and the revisit is served the zoom's cached map; its fingerprint
// is the one any construction of the same rows gives.
func TestFingerprintOncePerSelection(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	region, err := e.CurrentMap().Root.Find(leafPath(t, e))
	if err != nil {
		t.Fatal(err)
	}
	rows := region.RowIDs()
	zoomed, err := e.Zoom(region.Path...)
	if err != nil {
		t.Fatal(err)
	}
	if e.State().Rows != rows || region.RowIDs() != rows {
		t.Fatal("the zoomed state does not hold the region's set")
	}
	if want := store.RowsOf(rows.AppendTo(nil)).Fingerprint(); rows.Fingerprint() != want {
		t.Fatalf("fingerprint %x, want %x", rows.Fingerprint(), want)
	}
	// Project the zoomed state onto its own theme: the state's set keys
	// the lookup.
	b, err := e.Prepare(Action{Kind: ActionProject, Theme: e.CurrentMap().Theme.ID})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseMapHit || b.next.Rows != rows {
		t.Error("projecting the zoomed state did not key on its set")
	}
	// Roll back and zoom into the same region again: the region's set
	// keys the lookup.
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if b, err = e.Prepare(Action{Kind: ActionZoom, Path: region.Path}); err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseMapHit || b.next.Rows != rows {
		t.Error("the revisit did not key on the region's set")
	}
	// The revisit is served the zoom's map, over the region's set.
	if _, err := e.runAndApply(b, nil); err != nil {
		t.Fatal(err)
	}
	if e.CurrentMap() != zoomed || e.State().Rows != rows {
		t.Error("the revisit does not hold the cached map over the region's set")
	}
}

// TestRegionAndFilterShareEntry: a region's rows (a routing node's set)
// and a filter's by the region's own condition (the scan's set) are two
// constructions of one selection, so they reach one cache key — which
// holds because both producers build a set in its smallest form.
func TestRegionAndFilterShareEntry(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1}) // the labor table has no nulls
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	region, err := e.CurrentMap().Root.Find(leafPath(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Zoom(region.Path...); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	b, err := e.Prepare(Action{Kind: ActionFilter, Expr: region.Describe()})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != region.Count() {
		t.Fatalf("filter %q selects %d rows, the region holds %d", region.Describe(), b.Rows(), region.Count())
	}
	if b.next.Rows == region.RowIDs() {
		t.Fatal("the filter was handed the region's set, not a scan's")
	}
	if b.Reuse() != ReuseMapHit {
		t.Errorf("filter %q missed the entry its region's zoom cached", region.Describe())
	}
}
