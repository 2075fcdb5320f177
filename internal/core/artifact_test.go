package core

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// derivingExplorer returns an explorer tuned so small-region zooms pass
// the derivation policy (the test tables are only a few hundred rows).
func derivingExplorer(t *testing.T, opts Options) *Explorer {
	t.Helper()
	if opts.DerivedSampleMin == 0 {
		opts.DerivedSampleMin = 10
	}
	return asyncExplorer(t, opts)
}

// cachedArtifacts counts the cache entries that carry an artifact.
func cachedArtifacts(e *Explorer) int {
	n := 0
	for el := e.cache.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).art != nil {
			n++
		}
	}
	return n
}

// TestZoomDerivesOracle: a cold zoom (map-cache miss) whose rows sit
// inside the previous selection's sample must resolve as oracleDerived
// — sample and vectors re-sliced from the cached parent — and still
// produce a valid map over exactly the region's rows.
func TestZoomDerivesOracle(t *testing.T) {
	e := derivingExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil { // cold: caches its artifact
		t.Fatal(err)
	}
	if s := e.ReuseStats().Map; s.Misses != 1 || s.Entries != 1 || cachedArtifacts(e) != 1 {
		t.Fatalf("after select: stats %+v with %d artifacts, want 1 miss / 1 entry / 1 artifact", s, cachedArtifacts(e))
	}
	path := leafPath(t, e)
	b, err := e.PrepareZoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseOracleDerived {
		t.Fatalf("zoom reuse = %q, want %q", b.Reuse(), ReuseOracleDerived)
	}
	m, err := b.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBuild(b, m); err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseOracleDerived {
		t.Fatalf("post-run reuse = %q, want %q (no degenerate fallback expected)", b.Reuse(), ReuseOracleDerived)
	}
	region, err := e.History()[1].Map.Root.Find(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Root.Count(); got != region.Count() {
		t.Errorf("derived map covers %d rows, want %d", got, region.Count())
	}
	if m.SampleSize > region.Count() || m.SampleSize < 10 {
		t.Errorf("derived sample size %d out of range (region %d rows)", m.SampleSize, region.Count())
	}
	s := e.ReuseStats().Map
	if s.Derived != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats %+v, want 1 derived of 2 misses, 2 entries", s)
	}
	if n := cachedArtifacts(e); n != 1 {
		t.Errorf("%d cached artifacts, want 1 (derived artifacts must not be cached)", n)
	}
}

// TestArtifactLeavesWithItsMap: an artifact lives in its map's cache
// entry, so evicting the map takes the artifact with it. With room for
// one entry, the derived zoom's put evicts the select, and a sibling
// zoom after rollback finds no parent to derive from.
func TestArtifactLeavesWithItsMap(t *testing.T) {
	e := derivingExplorer(t, Options{Seed: 1, MapCacheSize: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	var paths [][]int
	for _, leaf := range e.CurrentMap().Root.Leaves() {
		if leaf.Count() >= 10 { // clears the derivation floor
			paths = append(paths, leaf.Path)
		}
	}
	if len(paths) < 2 {
		t.Fatal("need two leaf regions that clear the derivation floor")
	}
	b, err := e.PrepareZoom(paths[0]...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseOracleDerived {
		t.Fatalf("first zoom reuse = %q, want %q", b.Reuse(), ReuseOracleDerived)
	}
	if _, err := e.runAndApply(b); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if b, err = e.PrepareZoom(paths[1]...); err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("sibling zoom after the select's eviction: reuse = %q, want %q", b.Reuse(), ReuseCold)
	}
}

// TestCacheDisabledDerivesNothing: a negative MapCacheSize turns off
// the one reuse cache, derivation included — a zoom builds cold and the
// counters stay zero.
func TestCacheDisabledDerivesNothing(t *testing.T) {
	e := derivingExplorer(t, Options{Seed: 5, MapCacheSize: -1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	b, err := e.PrepareZoom(leafPath(t, e)...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("cache disabled but zoom reuse = %q", b.Reuse())
	}
	if _, err := e.runAndApply(b); err != nil {
		t.Fatal(err)
	}
	if s := e.ReuseStats(); s != (ReuseStats{}) {
		t.Errorf("disabled cache has stats %+v", s)
	}
}

// TestDerivationPolicyFloor: when the overlap with the cached parent
// sample is below the policy floor, the build must run cold.
func TestDerivationPolicyFloor(t *testing.T) {
	// DerivedSampleMin stays at its 128 default; the 240-row table's
	// leaf regions are smaller, so every zoom misses the floor.
	e := asyncExplorer(t, Options{Seed: 3})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	b, err := e.PrepareZoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("small-overlap zoom reuse = %q, want %q", b.Reuse(), ReuseCold)
	}
	if _, err := e.Zoom(path...); err != nil {
		t.Fatal(err)
	}
	s := e.ReuseStats().Map
	if s.Derived != 0 || s.Misses < 2 {
		t.Errorf("stats %+v, want 0 derived and >= 2 misses", s)
	}
}

// TestDerivationDisabled: DerivedSampleMin < 0 switches derivation off;
// the cache then only serves finished maps.
func TestDerivationDisabled(t *testing.T) {
	e := derivingExplorer(t, Options{Seed: 4, DerivedSampleMin: -1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	b, err := e.PrepareZoom(leafPath(t, e)...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("derivation disabled but reuse = %q", b.Reuse())
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

// TestConcurrentDerivedBuilds runs two derived builds against the same
// cached parent artifact concurrently (the -race CI target): both must
// build correct maps off the shared storage; serialized applies keep
// history sane — the loser fails with the stale-state error, never
// corrupts.
func TestConcurrentDerivedBuilds(t *testing.T) {
	e := derivingExplorer(t, Options{Seed: 8})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	m := e.CurrentMap()
	leaves := m.Root.Leaves()
	if len(leaves) < 2 {
		t.Fatal("need two leaf regions")
	}
	b1, err := e.PrepareZoom(leaves[0].Path...)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := e.PrepareZoom(leaves[1].Path...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*MapBuild{b1, b2} {
		if b.Reuse() != ReuseOracleDerived {
			t.Fatalf("reuse = %q, want %q", b.Reuse(), ReuseOracleDerived)
		}
	}
	var wg sync.WaitGroup
	maps := make([]*Map, 2)
	errs := make([]error, 2)
	for i, b := range []*MapBuild{b1, b2} {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			maps[i], errs[i] = b.Run(context.Background(), nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent derived build %d: %v", i, err)
		}
	}
	if err := e.ApplyBuild(b1, maps[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBuild(b2, maps[1]); err == nil {
		t.Fatal("stale concurrent apply should fail")
	} else if !strings.Contains(err.Error(), "state changed") {
		t.Fatalf("unexpected stale-apply error: %v", err)
	}
}

// TestDerivedBuildDegeneratesToCold: a zoom into a region that is
// constant on the theme columns must be rejected by the prepare-time
// degenerate-overlap check — it builds cold and degrades to a
// single-region map exactly like a from-scratch build.
func TestDerivedBuildDegeneratesToCold(t *testing.T) {
	tbl, _, _ := laborTable(240, 7)
	e, err := NewExplorer(tbl, Options{Seed: 9, DerivedSampleMin: 5})
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
	b, err := e.PrepareZoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("constant-region zoom reuse = %q, want %q (degenerate overlap rejected at prepare)",
			b.Reuse(), ReuseCold)
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
	if s := e.ReuseStats(); s.Map.Derived != 0 {
		t.Errorf("derived counter = %d, want 0 (rejected overlap must count as a miss)", s.Map.Derived)
	}
}
