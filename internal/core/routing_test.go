package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/store"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// regionsOf lists the regions of m's tree in preorder.
func regionsOf(m *Map) []*Region {
	var out []*Region
	var walk func(r *Region)
	walk = func(r *Region) {
		out = append(out, r)
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(m.Root)
	return out
}

// regionReadSlack is what a region's first read may allocate beside its
// set: the collect's scratch, and size-class rounding.
const regionReadSlack = 16 << 10

// assertRowsUnbuilt: the first read of every region's rows builds them,
// so nothing built them before, and costs at most min(8 bytes a row,
// span/8) — span the selection's — plus the collect's scratch.
func assertRowsUnbuilt(t *testing.T, what string, regions []*Region, span int) {
	t.Helper()
	for _, r := range regions {
		if n := r.Count(); n > 0 {
			got := allocated(func() { r.RowIDs() })
			if got == 0 {
				t.Errorf("%s: region %v (%d rows) was already built", what, r.Path, n)
			}
			if budget := uint64(min(8*n, (span+63)/64*8) + regionReadSlack); got > budget {
				t.Errorf("%s: the first read of region %v (%d rows) allocated %d bytes, budget %d", what, r.Path, n, got, budget)
			}
		}
	}
}

// spanOf is the width of the rows a set lies in.
func spanOf(s *store.RowSet) int {
	rows := s.AppendTo(nil)
	return rows[len(rows)-1] - rows[0] + 1
}

// TestSelectAndZoomBuildNoRegionRows: a map's regions carry counts, not
// rows — SelectTheme and Zoom leave every region of the maps they build
// unbuilt, and the root's rows are the selection itself.
func TestSelectAndZoomBuildNoRegionRows(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Root.RowIDs() != e.State().Rows {
		t.Fatal("the root region's rows are not the selection")
	}
	span := spanOf(e.State().Rows)
	zoomed, err := m.Root.Find(largestLeaf(m))
	if err != nil {
		t.Fatal(err)
	}
	zm, err := e.Zoom(zoomed.Path...)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsUnbuilt(t, "zoom", regionsOf(zm)[1:], spanOf(e.State().Rows))
	// The zoom built the rows of the region it entered, and only those.
	if got := allocated(func() { zoomed.RowIDs() }); got != 0 {
		t.Errorf("the zoomed region's rows were not kept: reading them allocated %d bytes", got)
	}
	var others []*Region
	for _, r := range regionsOf(m)[1:] {
		if r != zoomed {
			others = append(others, r)
		}
	}
	assertRowsUnbuilt(t, "select", others, span)
}

// TestMapCacheHitSharesRegionRows: a map-cache hit hands out the cached
// map itself, so a region's rows are built once — through whichever
// state reads them first — and read for free through every other state
// holding the map, also when they read concurrently. Run under -race by
// `make race-build`.
func TestMapCacheHitSharesRegionRows(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	orig, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseMapHit {
		t.Fatalf("reselecting the theme: reuse %q, want %q", b.Reuse(), ReuseMapHit)
	}
	hit, err := b.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit != orig {
		t.Fatal("the hit served a copy, not the cached map")
	}
	if err := e.ApplyBuild(b, hit); err != nil {
		t.Fatal(err)
	}
	path := largestLeaf(orig)
	find := func(m *Map) *Region {
		r, err := m.Root.Find(path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := find(e.CurrentMap())
	if got := allocated(func() { first.RowIDs() }); got == 0 {
		t.Fatalf("the hit's first read of %d rows allocated nothing", first.Count())
	}
	for name, r := range map[string]*Region{"select state": find(e.History()[1].Map), "hit state": find(e.CurrentMap())} {
		if got := allocated(func() { r.RowIDs() }); got != 0 {
			t.Errorf("%s: reading the region's rows allocated %d bytes, want 0", name, got)
		}
		if r.RowIDs() != first.RowIDs() {
			t.Errorf("%s: the region's rows are a second copy", name)
		}
	}

	var want [][]int
	for _, r := range regionsOf(orig) {
		want = append(want, r.RowIDs().AppendTo(nil))
	}
	fresh, err := NewExplorer(e.Table(), e.Options())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			regions := regionsOf(cold)
			for k := range regions {
				r := regions[(k+g)%len(regions)]
				if !slices.Equal(r.RowIDs().AppendTo(nil), want[(k+g)%len(regions)]) {
					t.Errorf("goroutine %d: region %v rows differ from the original map's", g, r.Path)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRegionStageByteBudget: mirroring the description tree over a
// selection of n rows, with no region inspected, allocates the rows'
// leaf ids — at most 3 bits a row, for the at most 8 leaves of a
// depth-3 tree — and what does not grow with n (the tree's nodes, fit
// in the build scratch the warm-up run grew; the router's scratch): not
// a row list per region.
func TestRegionStageByteBudget(t *testing.T) {
	const n = 120_000
	const fixed = 256 << 10
	tbl, _, _ := laborTable(n, 3)
	e, err := NewExplorer(tbl, Options{Seed: 1, SampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	ctx, rng, theme, rows := context.Background(), rand.New(rand.NewSource(1)), e.Themes()[0], e.State().Rows
	sampleRows := e.sampleStage(rng, rows, &buildScratch{})
	sample, err := e.gatherSample(sampleRows, theme, &buildScratch{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, vecs, err := e.prepStage(sample, theme, &buildScratch{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := e.oracleStage(vecs, &buildScratch{})
	cl, err := e.clusterStage(ctx, oracle, rng, &buildScratch{}, func(float64) {})
	if err != nil {
		t.Fatal(err)
	}
	sc := &buildScratch{}
	run := func() *Map {
		m, err := e.regionStage(ctx, oracle, pipe, sample, cl, rows, theme, sc, func(float64) {})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run() // warm the runtime's size classes
	var m *Map
	if got := allocated(func() { m = run() }); got > 3*n/8+fixed {
		t.Errorf("region stage over %d rows allocated %d bytes, budget %d", n, got, 3*n/8+fixed)
	}
	if len(m.Root.Children) == 0 {
		t.Fatal("the map has no split: nothing was routed")
	}
}

// TestOpenCostIndependentOfRows: a session's initial state is the whole
// table at O(1) — no identity list — so opening a 2M-row table
// allocates what opening a 200k-row one does, within 64 KB.
func TestOpenCostIndependentOfRows(t *testing.T) {
	table := func(n int) *store.Table {
		tab := store.NewTable("open")
		a, b, c := make([]bool, n), make([]bool, n), make([]bool, n)
		for i := range a {
			h := uint32(i) * 2654435761
			a[i], b[i], c[i] = h>>31 == 1, h>>31 == 1 != (h>>7&15 == 0), h>>13&1 == 1
		}
		tab.MustAddColumn(store.NewBoolColumnFrom("a", a))
		tab.MustAddColumn(store.NewBoolColumnFrom("b", b))
		tab.MustAddColumn(store.NewBoolColumnFrom("c", c))
		return tab
	}
	open := func(tab *store.Table) uint64 {
		return allocated(func() {
			if _, err := NewExplorer(tab, Options{Seed: 1, SampleSize: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := table(200_000), table(2_000_000)
	open(small) // warm the runtime's size classes
	s, l := open(small), open(large)
	if l > s+64<<10 {
		t.Errorf("opening 2M rows allocated %d bytes, 200k rows %d: more than 64 KB apart", l, s)
	}
}
