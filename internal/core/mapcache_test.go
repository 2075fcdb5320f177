package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
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
	c.put(rowsKey(rows, 1), m)
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

// TestCacheDisabledBuildsCold: a negative MapCacheSize turns off the
// one reuse cache — a zoom builds cold and the counters stay zero.
func TestCacheDisabledBuildsCold(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 5, MapCacheSize: -1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	b, err := e.Prepare(Action{Kind: ActionZoom, Path: leafPath(t, e)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("cache disabled but zoom reuse = %q", b.Reuse())
	}
	if _, err := e.runAndApply(b, nil); err != nil {
		t.Fatal(err)
	}
	if s := e.ReuseStats(); s != (ReuseStats{}) {
		t.Errorf("disabled cache has stats %+v", s)
	}
}

// TestZoomInsideCachedSelectBuildsCold: no miss reuses a cached build's
// sample or vectors — a cache entry holds only its map — so a zoom
// inside a cached select builds cold, and its map is the one a session
// without a cache builds.
func TestZoomInsideCachedSelectBuildsCold(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 4})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	b, err := e.Prepare(Action{Kind: ActionZoom, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("zoom inside a cached select: reuse = %q, want %q", b.Reuse(), ReuseCold)
	}
	m, err := e.runAndApply(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.ReuseStats().Map; s.Misses != 2 || s.Hits != 0 || s.Entries != 2 {
		t.Errorf("stats %+v, want 2 misses, no hit, 2 entries", s)
	}
	off := asyncExplorer(t, Options{Seed: 4, MapCacheSize: -1})
	if _, err := off.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	want, err := off.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(m, want) {
		t.Error("a zoom inside a cached select differs from the same zoom without a cache")
	}
}

// TestMapCacheEvictionCounter covers the cache's eviction counter.
func TestMapCacheEvictionCounter(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 7, MapCacheSize: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	if _, err := e.Zoom(path...); err != nil { // evicts the select's map
		t.Fatal(err)
	}
	s := e.ReuseStats()
	if s.Map.Entries != 1 || s.Map.Evictions != 1 || s.Map.Capacity != 1 {
		t.Errorf("cache stats %+v, want 1 entry / 1 eviction / capacity 1", s.Map)
	}
}

// TestConstantRegionZoomDegrades: a zoom into a region that is
// constant on the theme columns builds cold, refits the pipeline, finds
// no usable column and degrades to a single-region map.
func TestConstantRegionZoomDegrades(t *testing.T) {
	tbl, _, _ := laborTable(240, 7)
	e, err := NewExplorer(tbl, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"CountryName"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	// Find a leaf whose rows are constant on CountryName (a pure split).
	var path []int
	for _, leaf := range m.Root.Leaves() {
		vals := make(map[string]bool)
		col := tbl.ColumnByName("CountryName")
		leaf.RowIDs().Each(func(r int) {
			vals[col.StringAt(r)] = true
		})
		if len(vals) == 1 && leaf.Count() >= 5 {
			path = leaf.Path
			break
		}
	}
	if path == nil {
		t.Skip("no constant leaf region in this map")
	}
	b, err := e.Prepare(Action{Kind: ActionZoom, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("constant-region zoom reuse = %q, want %q", b.Reuse(), ReuseCold)
	}
	zm, err := b.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if zm.K != 1 || !zm.Root.IsLeaf() {
		t.Errorf("constant region should degrade to K=1, got K=%d", zm.K)
	}
	if err := e.ApplyBuild(b, zm); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSizeLeavesMapsAlone: the reuse cache serves maps and changes
// none. One walk — select → zoom → filter → rollback to the select →
// the same zoom again — gives the same digests with the cache off, with
// room for one map (the re-zoom misses and rebuilds) and at the default
// (it hits), in memory and through a segment. Exact PAM over the whole
// 900-row table maps alike under any seed, so a rebuild is the map a hit
// serves.
func TestCacheSizeLeavesMapsAlone(t *testing.T) {
	tab := pinnedTable(900, 15).Table
	backings := []struct {
		name string
		rel  func() store.Relation
	}{
		{"memory", func() store.Relation { return tab }},
		{"segment", func() store.Relation { return lawSegment(t, tab) }},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			rel := b.rel()
			var want string
			for _, size := range []int{-1, 1, 0} {
				e, err := NewExplorer(rel, Options{Seed: 7, MapCacheSize: size})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				record := func(step string, m *Map, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("cache size %d, %s: %v", size, step, err)
					}
					mapDigest(&sb, step, m)
				}
				m, err := e.SelectTheme(0)
				record("select", m, err)
				path := largestLeaf(m)
				m, err = e.Zoom(path...)
				record("zoom", m, err)
				split := m.Root.Split
				if split == nil {
					t.Fatal("the zoom's map has no split to filter on")
				}
				m, err = e.Filter(split)
				record("filter", m, err)
				for range 2 {
					if err := e.Rollback(); err != nil {
						t.Fatal(err)
					}
				}
				m, err = e.Zoom(path...)
				record("rezoom", m, err)
				if size == -1 {
					want = sb.String()
				} else if got := sb.String(); got != want {
					t.Errorf("cache size %d gave\n%s\nthe cache off gave\n%s", size, got, want)
				}
			}
		})
	}
}
