package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/store"
)

func asyncExplorer(t *testing.T, opts Options) *Explorer {
	t.Helper()
	tbl, _, _ := laborTable(240, 7)
	e, err := NewExplorer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// leafPath returns the path of the first leaf region of the current map.
func leafPath(t *testing.T, e *Explorer) []int {
	t.Helper()
	m := e.CurrentMap()
	if m == nil {
		t.Fatal("no active map")
	}
	leaves := m.Root.Leaves()
	if len(leaves) == 0 {
		t.Fatal("map has no leaves")
	}
	return leaves[0].Path
}

// TestZoomCacheHitOnRevisit: zoom → rollback → same zoom must be served
// from the cache — identical clustering, no rebuild, counters
// observable. The served map is the cached map itself: a map is not
// changed after its build, so states share it.
func TestZoomCacheHitOnRevisit(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	m1, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	m2, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.ReuseStats().Map.Hits, e.ReuseStats().Map.Misses
	if hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses < 2 { // the theme selection and the first zoom at least
		t.Errorf("cache misses = %d, want >= 2", misses)
	}
	// Cached result: the very map the first zoom built.
	if m1 != m2 {
		t.Error("cache hit must serve the cached map, not a copy")
	}
	if m1.K != m2.K || m1.Silhouette != m2.Silhouette || m1.SampleSize != m2.SampleSize {
		t.Errorf("cached map differs: K %d/%d sil %g/%g", m1.K, m2.K, m1.Silhouette, m2.Silhouette)
	}
	if m1.Root.Count() != m2.Root.Count() || len(m1.Root.Leaves()) != len(m2.Root.Leaves()) {
		t.Error("cached map has a different region tree")
	}
}

// TestSelectThenProjectSameThemeHitsCache: projecting the theme that is
// already mapped over the same selection is the same build — cache hit.
func TestSelectThenProjectSameThemeHitsCache(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	hitsBefore := e.ReuseStats().Map.Hits
	if _, err := e.Project(0); err != nil {
		t.Fatal(err)
	}
	if hitsAfter := e.ReuseStats().Map.Hits; hitsAfter != hitsBefore+1 {
		t.Errorf("projecting the active theme over the same rows should hit the cache (hits %d -> %d)",
			hitsBefore, hitsAfter)
	}
}

// TestCacheHitDoesNotLeakAnnotations: annotations attached to one
// navigation state must not appear on (or be mutable through) a later
// cache-served build of the same map — the pre-cache behavior of a
// fresh build.
func TestCacheHitDoesNotLeakAnnotations(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	m1, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	first := e.State()
	sub := m1.Root.Leaves()[0].Path
	if err := e.Annotate("note on first visit", sub...); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	m2, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if hits := e.ReuseStats().Map.Hits; hits != 1 {
		t.Fatalf("expected a cache hit, got %d", hits)
	}
	for _, leaf := range m2.Root.Leaves() {
		if notes := e.State().Annotations(leaf); len(notes) != 0 {
			t.Fatalf("cache-served map arrived pre-annotated: %v", notes)
		}
	}
	// And annotating the new state must not touch the old one.
	if err := e.Annotate("note on revisit", sub...); err != nil {
		t.Fatal(err)
	}
	r1, err := m1.Root.Find(sub)
	if err != nil {
		t.Fatal(err)
	}
	if notes := first.Annotations(r1); len(notes) != 1 || notes[0] != "note on first visit" {
		t.Errorf("revisit annotation bled into the earlier state: %v", notes)
	}
}

// TestMapCacheDisabled: a negative MapCacheSize turns caching off —
// every build is fresh and the counters stay zero.
func TestMapCacheDisabled(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1, MapCacheSize: -1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	m1, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	m2, err := e.Zoom(path...)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Error("cache disabled: maps should be rebuilt")
	}
	if h, m := e.ReuseStats().Map.Hits, e.ReuseStats().Map.Misses; h != 0 || m != 0 {
		t.Errorf("stats = %d/%d, want 0/0", h, m)
	}
}

// TestMapCacheLRUEviction: a capacity-1 cache must evict the older entry
// and miss on its revisit.
func TestMapCacheLRUEviction(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1, MapCacheSize: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	if _, err := e.Zoom(path...); err != nil { // evicts the select build
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	hitsBefore := e.ReuseStats().Map.Hits
	if _, err := e.SelectTheme(0); err != nil { // must rebuild: evicted
		t.Fatal(err)
	}
	hitsAfter := e.ReuseStats().Map.Hits
	if hitsAfter != hitsBefore {
		t.Errorf("evicted entry produced a hit (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}

// TestPrepareRunApplyEquivalence: the detached three-step path must
// produce exactly the map the synchronous action produces under the same
// seed.
func TestPrepareRunApplyEquivalence(t *testing.T) {
	sync := asyncExplorer(t, Options{Seed: 9})
	async := asyncExplorer(t, Options{Seed: 9})

	wantMap, err := sync.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}

	b, err := async.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	gotMap, err := b.Run(context.Background(), func(f float64) {
		if f < last {
			t.Errorf("progress went backwards: %g after %g", f, last)
		}
		last = f
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 1 {
		t.Errorf("final progress = %g, want 1", last)
	}
	if err := async.ApplyBuild(b, gotMap); err != nil {
		t.Fatal(err)
	}

	if gotMap.K != wantMap.K || gotMap.SampleSize != wantMap.SampleSize ||
		gotMap.Silhouette != wantMap.Silhouette || gotMap.TreeAccuracy != wantMap.TreeAccuracy {
		t.Errorf("async map (K=%d sil=%g) != sync map (K=%d sil=%g)",
			gotMap.K, gotMap.Silhouette, wantMap.K, wantMap.Silhouette)
	}
	if len(async.History()) != 2 {
		t.Errorf("history depth = %d, want 2", len(async.History()))
	}
}

// TestApplyBuildStale: a build prepared against a state that has since
// changed must be refused.
func TestApplyBuildStale(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	b, err := e.Prepare(Action{Kind: ActionZoom, Path: leafPath(t, e)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil { // state moves under the build
		t.Fatal(err)
	}
	if err := e.ApplyBuild(b, m); err == nil {
		t.Fatal("stale apply should fail")
	}
	if len(e.History()) != 1 {
		t.Errorf("stale apply mutated history (depth %d)", len(e.History()))
	}
}

// TestApplyBuildWrongExplorer: builds are not transferable.
func TestApplyBuildWrongExplorer(t *testing.T) {
	a := asyncExplorer(t, Options{Seed: 1})
	b2 := asyncExplorer(t, Options{Seed: 1})
	build, err := a.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	m, err := build.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.ApplyBuild(build, m); err == nil {
		t.Fatal("cross-explorer apply should fail")
	}
}

// TestRunCancelled: a cancelled context aborts the build with the
// context's error.
func TestRunCancelled(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Run(ctx, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// medianFilter returns a predicate keeping roughly the upper half of
// the current selection on the first column of the active theme.
func medianFilter(t *testing.T, e *Explorer) store.Predicate {
	t.Helper()
	col := e.CurrentMap().Theme.Columns[0]
	vals, _ := store.RowFloats(e.Table().ColumnByName(col), e.State().Rows)
	sort.Float64s(vals)
	return store.NumCmp{Col: col, Op: store.Ge, Val: vals[len(vals)/2]}
}

// TestFilterRevisitHitsMapCache: a filter is a prepared build like the
// other three actions, so select → filter → rollback → the same filter
// resolves from the map cache, serves the first filter's map, and the
// counters obey their conservation laws with the filters counted.
func TestFilterRevisitHitsMapCache(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	pred := medianFilter(t, e)
	m1, err := e.Filter(pred)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	b, err := e.prepareFilter(pred)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseMapHit {
		t.Fatalf("repeated filter: reuse=%q, want a %q", b.Reuse(), ReuseMapHit)
	}
	m2, err := e.runAndApply(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("the hit must serve the first filter's map, not a copy")
	}
	if !mapsEqual(m1, m2) {
		t.Error("the revisited filter's map differs from the first one")
	}
	if st := e.State(); st.Action.Kind != ActionFilter || st.Detail != pred.String() || st.Rows.Len() != m2.Root.Count() {
		t.Errorf("state after the hit: %s %q over %d rows, map holds %d", st.Action.Kind, st.Detail, st.Rows.Len(), m2.Root.Count())
	}
	s := e.ReuseStats()
	if s.Map.Hits != 1 || s.Map.Hits+s.Map.Misses != 3 {
		t.Errorf("cache %+v, want 1 hit of 3 lookups (select, filter, filter)", s.Map)
	}
}

// TestFilterDrawsOnceFromTheSessionStream: like every other action a
// filter takes exactly one value off the explorer's random stream, in
// prepare — with or without a map to rebuild — so what later actions
// draw does not depend on how much randomness its build used.
func TestFilterDrawsOnceFromTheSessionStream(t *testing.T) {
	for _, withMap := range []bool{true, false} {
		e, twin := asyncExplorer(t, Options{Seed: 5}), asyncExplorer(t, Options{Seed: 5})
		pred := store.Predicate(store.NumCmp{Col: "AverageIncome", Op: store.Ge, Val: 20})
		if withMap {
			for _, x := range []*Explorer{e, twin} {
				if _, err := x.SelectTheme(0); err != nil {
					t.Fatal(err)
				}
			}
			pred = medianFilter(t, e)
		}
		if _, err := e.Filter(pred); err != nil {
			t.Fatal(err)
		}
		twin.rng.Int63()
		if e.rng.Int63() != twin.rng.Int63() {
			t.Errorf("with map %v: a filter advanced the session's random stream by other than one draw", withMap)
		}
	}
}
