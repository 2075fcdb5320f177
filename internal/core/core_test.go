package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/store"
)

// laborTable builds a compact countries-like table with the Fig. 1
// structure: a labor theme (hours/income, 3 clusters), an unemployment
// theme (2 clusters), and a name column.
func laborTable(n int, seed int64) (*store.Table, []int, []int) {
	rng := rand.New(rand.NewSource(seed))
	name := store.NewStringColumn("CountryName")
	hours := store.NewFloatColumn("WorkingLongHours")
	income := store.NewFloatColumn("AverageIncome")
	leisure := store.NewFloatColumn("Leisure")
	unemp := store.NewFloatColumn("Unemployment")
	ltUnemp := store.NewFloatColumn("LongTermUnemployment")

	labor := make([]int, n)
	uc := make([]int, n)
	highNames := []string{"Switzerland", "Norway", "Canada"}
	otherNames := []string{"Aland", "Borduria", "Cordonia", "Drusselstein"}
	for i := 0; i < n; i++ {
		c := i % 3
		labor[i] = c
		switch c {
		case 0:
			hours.Append(26 + rng.NormFloat64()*2)
			income.Append(20 + rng.NormFloat64()*4)
			name.Append(otherNames[rng.Intn(len(otherNames))])
		case 1:
			hours.Append(9 + rng.NormFloat64()*2)
			income.Append(30 + rng.NormFloat64()*2.5)
			name.Append(highNames[rng.Intn(len(highNames))])
		default:
			hours.Append(11 + rng.NormFloat64()*2)
			income.Append(15 + rng.NormFloat64()*2)
			name.Append(otherNames[rng.Intn(len(otherNames))])
		}
		leisure.Append(16 - hours.Value(i)*0.3 + rng.NormFloat64()*0.5)
		u := 0
		if rng.Float64() < 0.5 {
			u = 1
		}
		uc[i] = u
		if u == 0 {
			unemp.Append(4 + rng.NormFloat64())
		} else {
			unemp.Append(12 + rng.NormFloat64())
		}
		ltUnemp.Append(unemp.Value(i)*0.4 + rng.NormFloat64()*0.3)
	}
	t := store.NewTable("countries")
	for _, c := range []store.Column{name, hours, income, leisure, unemp, ltUnemp} {
		t.MustAddColumn(c)
	}
	return t, labor, uc
}

func TestNewExplorerDetectsThemes(t *testing.T) {
	tab, _, _ := laborTable(900, 1)
	e, err := NewExplorer(tab, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	themes := e.Themes()
	if len(themes) < 2 {
		t.Fatalf("themes = %d, want >= 2", len(themes))
	}
	// Labor columns and unemployment columns must land in different
	// themes.
	find := func(col string) int {
		for _, th := range themes {
			for _, c := range th.Columns {
				if c == col {
					return th.ID
				}
			}
		}
		return -1
	}
	if find("WorkingLongHours") == -1 || find("Unemployment") == -1 {
		t.Fatal("named columns missing from themes")
	}
	if find("WorkingLongHours") == find("Unemployment") {
		t.Error("labor and unemployment merged into one theme")
	}
	if find("Unemployment") != find("LongTermUnemployment") {
		t.Error("unemployment columns split across themes")
	}
}

// TestExplorerOptionsReportsEffectiveDefaults: Options() must return the
// options the engine actually runs with — defaults applied — not the
// sparse struct the caller passed in.
func TestExplorerOptionsReportsEffectiveDefaults(t *testing.T) {
	tab, _, _ := laborTable(200, 1)
	e, err := NewExplorer(tab, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Options()
	want := DefaultOptions()
	if got.SampleSize != want.SampleSize || got.PAMThreshold != want.PAMThreshold {
		t.Errorf("Options() = sample %d threshold %d, want defaults %d / %d",
			got.SampleSize, got.PAMThreshold, want.SampleSize, want.PAMThreshold)
	}
}

// TestBuildTraceRecordsOracle: the engine chooses the oracle's storage
// by sample size, and every build that clusters builds its own oracle
// and says which on its trace — a zoom its own too, whatever its
// parent's was — with an oracle span and, over a matrix, exactly the
// matrix's n(n-1)/2 cells as its distance work (the cost model's "exact
// builds pay one matrix"), on the in-memory table and on a segment of
// it; a map hit clusters nothing and says nothing. The lazy case's
// select clusters 2500 objects, and its zoom a region within
// PAMThreshold; the select's distance work is its lazy oracle's rows and
// the matrices filled from it, more than none and the same in a second
// same-seed build.
func TestBuildTraceRecordsOracle(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		opts       Options
		cold, zoom string
	}{
		{"matrix", 900, Options{Seed: 3}, "matrix", "matrix"},
		{"lazy", 3000, Options{Seed: 11, SampleSize: 2500}, "lazy", "matrix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := pinnedTable(tc.n, 19).Table
			for _, backing := range []struct {
				name string
				rel  store.Relation
			}{{"memory", tab}, {"segment", lawSegment(t, tab)}} {
				t.Run(backing.name, func(t *testing.T) {
					e, err := NewExplorer(backing.rel, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					// traced runs b and returns its map and its trace.
					traced := func(b *MapBuild, err error) (*Map, obs.TraceSnapshot) {
						t.Helper()
						if err != nil {
							t.Fatal(err)
						}
						tr := obs.NewTrace(obs.ClockAt(func() time.Time { return time.Time{} }))
						m, err := b.Run(obs.WithTrace(context.Background(), tr), nil)
						if err != nil {
							t.Fatal(err)
						}
						return m, tr.Snapshot()
					}
					// run applies b and returns its distance work.
					run := func(b *MapBuild, err error, wantReuse ReuseLevel, wantOracle string) int64 {
						t.Helper()
						m, snap := traced(b, err)
						if err := e.ApplyBuild(b, m); err != nil {
							t.Fatal(err)
						}
						// Exact builds pay one matrix, whatever holds it.
						if n := int64(m.SampleSize); wantReuse == ReuseCold && n <= int64(e.Options().PAMThreshold) && snap.Counters["oracleDistEvals"] != n*(n-1)/2 {
							t.Fatalf("oracleDistEvals %d, want the %d cells of this build's one matrix", snap.Counters["oracleDistEvals"], n*(n-1)/2)
						}
						if snap.Attrs["reuse"] != string(wantReuse) || snap.Attrs["oracle"] != wantOracle {
							t.Fatalf("trace attrs %v, want reuse %q and oracle %q", snap.Attrs, wantReuse, wantOracle)
						}
						spans := 0
						for _, sp := range snap.Spans {
							if sp.Name == "oracle" {
								spans++
							}
						}
						if wantOracle == "" {
							if spans != 0 {
								t.Fatalf("a map hit has %d oracle spans", spans)
							}
							return 0
						}
						if spans != 1 {
							t.Fatalf("%d oracle spans, want 1", spans)
						}
						if (m.SampleSize > e.Options().PAMThreshold) != (wantOracle == "lazy") {
							t.Fatalf("sample of %d objects clustered over a %s oracle", m.SampleSize, wantOracle)
						}
						return snap.Counters["oracleDistEvals"]
					}
					b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
					cold := run(b, err, ReuseCold, tc.cold)
					if tc.cold == "lazy" {
						again, err := NewExplorer(backing.rel, tc.opts)
						if err != nil {
							t.Fatal(err)
						}
						_, snap := traced(again.Prepare(Action{Kind: ActionSelect, Theme: 0}))
						if n := snap.Counters["oracleDistEvals"]; cold <= 0 || n != cold {
							t.Fatalf("cold lazy builds booked %d and %d oracleDistEvals, want the same count above 0", cold, n)
						}
					}
					leaf := largestLeaf(e.CurrentMap())
					b, err = e.Prepare(Action{Kind: ActionZoom, Path: leaf})
					run(b, err, ReuseCold, tc.zoom)
					if err := e.Rollback(); err != nil {
						t.Fatal(err)
					}
					b, err = e.Prepare(Action{Kind: ActionZoom, Path: leaf})
					run(b, err, ReuseMapHit, "")
				})
			}
		})
	}
}

// TestLazyStrategyMatchesMaterializedMaps is the end-to-end differential
// of the oracle layer: the same prepared sample, clustered and described
// once over the matrix the engine chose and once over a lazy oracle,
// must give identical maps (same k, silhouette, tree and region counts)
// — the storage changes memory behavior, never results.
func TestLazyStrategyMatchesMaterializedMaps(t *testing.T) {
	tab, _, _ := laborTable(900, 3)
	e, err := NewExplorer(tab, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id := findThemeWith(e, "WorkingLongHours")
	var theme Theme
	for _, th := range e.Themes() {
		if th.ID == id {
			theme = th
		}
	}
	ctx, rows := context.Background(), e.State().Rows
	sampleRows := e.sampleStage(rand.New(rand.NewSource(7)), rows, &buildScratch{})
	sample, err := e.gatherSample(sampleRows, theme, &buildScratch{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, vecs, err := e.prepStage(sample, theme, &buildScratch{})
	if err != nil {
		t.Fatal(err)
	}
	mat := e.oracleStage(vecs, &buildScratch{})
	if _, ok := mat.(*cluster.DistMatrix); !ok {
		t.Fatalf("engine chose lazy storage for %d objects, want matrix", len(vecs))
	}
	build := func(o cluster.Oracle) *Map {
		sc := &buildScratch{}
		cl, err := e.clusterStage(ctx, o, rand.New(rand.NewSource(7)), sc, func(float64) {})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.regionStage(ctx, o, pipe, sample, cl, rows, theme, sc, func(float64) {})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mm, lm := build(mat), build(cluster.NewLazyOracle(vecs, e.metric))
	if mm.K < 2 {
		t.Fatalf("matrix map has k=%d: nothing to compare", mm.K)
	}
	if mm.K != lm.K || mm.Silhouette != lm.Silhouette || mm.TreeAccuracy != lm.TreeAccuracy {
		t.Fatalf("maps diverge: matrix k=%d sil=%v acc=%v, lazy k=%d sil=%v acc=%v",
			mm.K, mm.Silhouette, mm.TreeAccuracy, lm.K, lm.Silhouette, lm.TreeAccuracy)
	}
	ml, ll := mm.Root.Leaves(), lm.Root.Leaves()
	if len(ml) != len(ll) {
		t.Fatalf("leaf counts diverge: %d vs %d", len(ml), len(ll))
	}
	for i := range ml {
		if ml[i].Count() != ll[i].Count() || ml[i].ClusterID != ll[i].ClusterID {
			t.Fatalf("leaf %d diverges: %d/%d vs %d/%d", i,
				ml[i].Count(), ml[i].ClusterID, ll[i].Count(), ll[i].ClusterID)
		}
	}
}

func findThemeWith(e *Explorer, col string) int {
	for _, th := range e.Themes() {
		for _, c := range th.Columns {
			if c == col {
				return th.ID
			}
		}
	}
	return -1
}

func TestSelectThemeBuildsMap(t *testing.T) {
	tab, labor, _ := laborTable(900, 2)
	e, err := NewExplorer(tab, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Use an edited theme with the full Fig. 1 column set, as a user
	// would in the theme view.
	id, err := e.AddTheme([]string{"WorkingLongHours", "AverageIncome", "Leisure"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.K < 2 {
		t.Fatalf("map K = %d, want >= 2", m.K)
	}
	// All leaf regions together partition the full selection.
	leaves := m.Root.Leaves()
	total := 0
	for _, l := range leaves {
		total += l.Count()
	}
	if total != 900 {
		t.Errorf("leaf counts sum to %d, want 900", total)
	}
	// Region labels from the tree should track the planted labor clusters.
	pred := make([]int, 900)
	for i := range pred {
		pred[i] = -1
	}
	for _, l := range leaves {
		l.RowIDs().Each(func(r int) {
			pred[r] = l.ClusterID
		})
	}
	if ari := eval.AdjustedRandIndex(labor, pred); ari < 0.7 {
		t.Errorf("map regions vs planted labor clusters: ARI = %.3f", ari)
	}
	if m.TreeAccuracy < 0.85 {
		t.Errorf("tree accuracy = %.3f, want >= 0.85", m.TreeAccuracy)
	}
}

func TestFig1bMapSplitsOnHoursThenIncome(t *testing.T) {
	tab, _, _ := laborTable(1200, 3)
	e, err := NewExplorer(tab, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"WorkingLongHours", "AverageIncome", "Leisure"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	// The map's split predicates must mention the planted split columns.
	rendered := m.Root.RenderTree()
	if !strings.Contains(rendered, "WorkingLongHours") {
		t.Errorf("map does not split on working hours:\n%s", rendered)
	}
	if !strings.Contains(rendered, "AverageIncome") && m.K >= 3 {
		t.Errorf("3-cluster map does not split on income:\n%s", rendered)
	}
}

func TestZoomNarrowsSelection(t *testing.T) {
	tab, _, _ := laborTable(900, 4)
	e, err := NewExplorer(tab, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(findThemeWith(e, "WorkingLongHours"))
	if err != nil {
		t.Fatal(err)
	}
	leaves := m.Root.Leaves()
	target := leaves[0]
	before := e.State().Rows.Len()
	if _, err := e.Zoom(target.Path...); err != nil {
		t.Fatal(err)
	}
	after := e.State().Rows.Len()
	if after != target.Count() || after >= before {
		t.Errorf("zoom rows = %d, want region count %d < %d", after, target.Count(), before)
	}
	if e.State().Action.Kind != ActionZoom {
		t.Error("state action should be zoom")
	}
	// The zoom condition must include the region's predicates.
	if len(e.State().Condition) == 0 {
		t.Error("zoom should accumulate predicates")
	}
	// The implicit query must mention the condition.
	if q := e.Query(); !strings.Contains(q, "WHERE") {
		t.Errorf("query = %q", q)
	}
}

func TestZoomErrors(t *testing.T) {
	tab, _, _ := laborTable(300, 5)
	e, _ := NewExplorer(tab, Options{Seed: 5})
	if _, err := e.Zoom(0); err == nil {
		t.Error("zoom without a map should fail")
	}
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Zoom(99); err == nil {
		t.Error("invalid path should fail")
	}
	if _, err := e.SelectTheme(99); err == nil {
		t.Error("invalid theme should fail")
	}
	if _, err := e.Project(-1); err == nil {
		t.Error("invalid projection should fail")
	}
}

func TestProjectKeepsRowsChangesColumns(t *testing.T) {
	tab, _, _ := laborTable(900, 6)
	e, err := NewExplorer(tab, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	laborID := findThemeWith(e, "WorkingLongHours")
	unempID := findThemeWith(e, "Unemployment")
	if _, err := e.SelectTheme(laborID); err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(laborID)
	if err != nil {
		t.Fatal(err)
	}
	// Zoom into the biggest region, then project onto unemployment.
	leaves := m.Root.Leaves()
	big := leaves[0]
	for _, l := range leaves {
		if l.Count() > big.Count() {
			big = l
		}
	}
	if _, err := e.Zoom(big.Path...); err != nil {
		t.Fatal(err)
	}
	rowsBefore := e.State().Rows.Len()
	pm, err := e.Project(unempID)
	if err != nil {
		t.Fatal(err)
	}
	if e.State().Rows.Len() != rowsBefore {
		t.Error("project must keep the selection")
	}
	if pm.Theme.ID != unempID {
		t.Error("projected map carries wrong theme")
	}
	if !strings.Contains(pm.Root.RenderTree(), "Unemployment") {
		t.Error("projected map should split on unemployment columns")
	}
}

func TestHighlightRevealsCountries(t *testing.T) {
	tab, _, _ := laborTable(900, 7)
	e, err := NewExplorer(tab, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	// Find the leaf with highest mean income (the CH/NO/CA cluster).
	income := tab.ColumnByName("AverageIncome")
	var best *Region
	bestMean := -1.0
	for _, l := range m.Root.Leaves() {
		sum := 0.0
		l.RowIDs().Each(func(r int) {
			sum += income.Float(r)
		})
		if mean := sum / float64(l.Count()); mean > bestMean {
			bestMean, best = mean, l
		}
	}
	h, err := e.Highlight("CountryName", best.Path...)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, v := range h.SampleValues {
		found[v] = true
	}
	for _, want := range []string{"Switzerland", "Norway", "Canada"} {
		if !found[want] {
			t.Errorf("highlight misses %s; got %v", want, h.SampleValues)
		}
	}
	if h.Stats.Count == 0 {
		t.Error("highlight stats empty")
	}
}

func TestHighlightErrors(t *testing.T) {
	tab, _, _ := laborTable(300, 8)
	e, _ := NewExplorer(tab, Options{Seed: 8})
	if _, err := e.Highlight("CountryName"); err == nil {
		t.Error("highlight without map should fail")
	}
	_, _ = e.SelectTheme(0)
	if _, err := e.Highlight("zzz"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.Highlight("CountryName", 42, 42); err == nil {
		t.Error("bad path should fail")
	}
}

func TestRollbackRestoresState(t *testing.T) {
	tab, _, _ := laborTable(900, 9)
	e, err := NewExplorer(tab, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err == nil {
		t.Error("rollback at initial state should fail")
	}
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Zoom(m.Root.Leaves()[0].Path...); err != nil {
		t.Fatal(err)
	}
	zoomRows := e.State().Rows.Len()
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.State().Rows.Len() != 900 {
		t.Errorf("rollback rows = %d, want 900", e.State().Rows.Len())
	}
	if e.State().Map != m {
		t.Error("rollback should restore the previous map")
	}
	if zoomRows >= 900 {
		t.Error("zoom did not narrow")
	}
	// Roll back to initial: no map.
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.CurrentMap() != nil {
		t.Error("initial state should have no map")
	}
}

func TestHistoryTrail(t *testing.T) {
	tab, _, _ := laborTable(600, 10)
	e, _ := NewExplorer(tab, Options{Seed: 10})
	m, _ := e.SelectTheme(0)
	_, _ = e.Zoom(m.Root.Leaves()[0].Path...)
	h := e.History()
	if len(h) != 3 {
		t.Fatalf("history = %d states, want 3", len(h))
	}
	if h[0].Action.Kind != ActionInit || h[1].Action.Kind != ActionSelect || h[2].Action.Kind != ActionZoom {
		t.Errorf("actions = %v %v %v", h[0].Action.Kind, h[1].Action.Kind, h[2].Action.Kind)
	}
}

func TestMaxHistoryBounded(t *testing.T) {
	tab, _, _ := laborTable(600, 11)
	e, _ := NewExplorer(tab, Options{Seed: 11})
	// Past the first two builds every select is a map-cache hit.
	for i := 0; i < historyLimit+6; i++ {
		if _, err := e.SelectTheme(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.History()) != historyLimit {
		t.Errorf("history = %d states, want %d", len(e.History()), historyLimit)
	}
	// The initial state survives trimming.
	if e.History()[0].Action.Kind != ActionInit {
		t.Error("initial state must survive history trimming")
	}
}

// TestTinyHistoryKeepsCurrentState: a full history still holds the
// initial state and the current one, so select → zoom → rollback works
// at the limit — the map an action returns is the current state's, and
// a rollback lands on the state before it in the kept history.
func TestTinyHistoryKeepsCurrentState(t *testing.T) {
	tab, _, _ := laborTable(600, 11)
	e, err := NewExplorer(tab, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var m *Map
	for len(e.History()) < historyLimit {
		if m, err = e.SelectTheme(0); err != nil {
			t.Fatalf("select: %v", err)
		}
	}
	if e.State().Map != m {
		t.Fatal("the selected map is not the current state's")
	}
	zm, err := e.Zoom(largestLeaf(m)...)
	if err != nil {
		t.Fatalf("zoom: %v", err)
	}
	if e.State().Map != zm || e.State().Action.Kind != ActionZoom {
		t.Fatal("the zoomed map is not the current state's")
	}
	h := e.History()
	if len(h) != historyLimit || h[0].Action.Kind != ActionInit {
		t.Fatalf("history of %d states starting %s, want %d starting with the initial state", len(h), h[0].Action.Kind, historyLimit)
	}
	if err := e.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if e.State() != h[len(h)-2] {
		t.Fatal("rollback did not return to the previous state")
	}
}

func TestMultiScaleSampling(t *testing.T) {
	// With SampleSize far below n, maps must still cover all rows but
	// cluster only the sample.
	tab, _, _ := laborTable(5000, 12)
	e, err := NewExplorer(tab, Options{Seed: 12, SampleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(findThemeWith(e, "WorkingLongHours"))
	if err != nil {
		t.Fatal(err)
	}
	if m.SampleSize != 500 {
		t.Errorf("sample size = %d, want 500", m.SampleSize)
	}
	total := 0
	for _, l := range m.Root.Leaves() {
		total += l.Count()
	}
	if total != 5000 {
		t.Errorf("regions cover %d rows, want all 5000", total)
	}
}

func TestRegionFindAndLeaves(t *testing.T) {
	r := &Region{
		Children: []*Region{
			{Path: []int{0}},
			{Path: []int{1}, Children: []*Region{{Path: []int{1, 0}}, {Path: []int{1, 1}}}},
		},
	}
	got, err := r.Find([]int{1, 0})
	if err != nil || got.Path[1] != 0 {
		t.Error("find failed")
	}
	if _, err := r.Find([]int{2}); err == nil {
		t.Error("invalid path should fail")
	}
	if len(r.Leaves()) != 3 {
		t.Errorf("leaves = %d, want 3", len(r.Leaves()))
	}
}

func TestThemeLabel(t *testing.T) {
	th := Theme{Columns: []string{"a", "b", "c", "d", "e"}}
	l := th.Label()
	if !strings.Contains(l, "a, b, c") || !strings.Contains(l, "5 columns") {
		t.Errorf("label = %q", l)
	}
	short := Theme{Columns: []string{"x"}}
	if short.Label() != "x" {
		t.Errorf("short label = %q", short.Label())
	}
}

func TestZoomToConstantRegionDegradesGracefully(t *testing.T) {
	// A theme with one categorical column: zooming into a leaf leaves a
	// constant column; the map must degrade to a single region, not fail.
	tab := store.NewTable("t")
	vals := make([]string, 300)
	nums := make([]float64, 300)
	rng := rand.New(rand.NewSource(21))
	for i := range vals {
		vals[i] = []string{"a", "b"}[i%2]
		nums[i] = rng.Float64()
	}
	tab.MustAddColumn(store.NewStringColumnFrom("cat", vals))
	tab.MustAddColumn(store.NewFloatColumnFrom("noise", nums))
	e, err := NewExplorer(tab, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"cat"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	leaves := m.Root.Leaves()
	if len(leaves) < 2 {
		t.Fatalf("want a split on cat, got %d leaves", len(leaves))
	}
	zm, err := e.Zoom(leaves[0].Path...)
	if err != nil {
		t.Fatal(err)
	}
	if zm.K != 1 || !zm.Root.IsLeaf() {
		t.Errorf("constant region should degrade to K=1 single region, got K=%d", zm.K)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestAddThemeValidation(t *testing.T) {
	tab, _, _ := laborTable(300, 20)
	e, _ := NewExplorer(tab, Options{Seed: 20})
	if _, err := e.AddTheme(nil); err == nil {
		t.Error("empty theme should fail")
	}
	if _, err := e.AddTheme([]string{"zzz"}); err == nil {
		t.Error("unknown column should fail")
	}
	// A repeated column would pass here and fail every build of the theme
	// at the gather ("store: duplicate column").
	if _, err := e.AddTheme([]string{"AverageIncome", "AverageIncome"}); err == nil {
		t.Error("a column named twice should fail")
	}
	before := len(e.Themes())
	id, err := e.AddTheme([]string{"AverageIncome", "WorkingLongHours"})
	if err != nil {
		t.Fatal(err)
	}
	if id != before || len(e.Themes()) != before+1 {
		t.Error("theme not appended")
	}
	th := e.Themes()[id]
	if th.Cohesion <= 0 {
		t.Error("cohesion should be computed from the dependency graph")
	}
}

func TestEmptyTableFails(t *testing.T) {
	tab := store.NewTable("empty")
	tab.MustAddColumn(store.NewFloatColumn("x"))
	if _, err := NewExplorer(tab, Options{}); err == nil {
		t.Error("empty table should fail")
	}
}

func TestKeyOnlyTableFails(t *testing.T) {
	tab := store.NewTable("keys")
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(i)
	}
	tab.MustAddColumn(store.NewIntColumnFrom("id", ids))
	if _, err := NewExplorer(tab, Options{}); err == nil {
		t.Error("key-only table should fail theme detection")
	}
}

func TestExplorerDeterministic(t *testing.T) {
	tab, _, _ := laborTable(600, 13)
	run := func() string {
		e, err := NewExplorer(tab, Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.SelectTheme(0)
		if err != nil {
			t.Fatal(err)
		}
		return m.Root.RenderTree()
	}
	if run() != run() {
		t.Error("same seed must give identical maps")
	}
}

func TestRegionHistogram(t *testing.T) {
	tab, _, _ := laborTable(600, 14)
	e, _ := NewExplorer(tab, Options{Seed: 14})
	_, err := e.SelectTheme(findThemeWith(e, "WorkingLongHours"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.RegionHistogram("AverageIncome", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 8 || len(h.Edges) != 9 {
		t.Fatalf("histogram shape: %d counts, %d edges", len(h.Counts), len(h.Edges))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 600 {
		t.Errorf("histogram covers %d rows, want 600", total)
	}
	if _, err := e.RegionHistogram("CountryName", 8); err == nil {
		t.Error("categorical histogram should fail")
	}
	if _, err := e.RegionHistogram("zzz", 8); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestCountriesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full countries generation")
	}
	rng := rand.New(rand.NewSource(15))
	ds := datagen.Countries(rng)
	e, err := NewExplorer(ds.Table, Options{Seed: 15, SampleSize: 1000, DependencySampleRows: 800})
	if err != nil {
		t.Fatal(err)
	}
	// Theme recovery: predicted themes vs planted, weighted Jaccard.
	var pred [][]string
	for _, th := range e.Themes() {
		pred = append(pred, th.Columns)
	}
	if rec := eval.SetRecovery(ds.Themes, pred); rec < 0.5 {
		t.Errorf("theme recovery = %.3f, want >= 0.5", rec)
	}
	// Map the labor theme and compare against planted labor clusters.
	laborID := findThemeWith(e, "PctEmployeesWorkingLongHours")
	if laborID < 0 {
		t.Fatal("labor theme missing")
	}
	m, err := e.SelectTheme(laborID)
	if err != nil {
		t.Fatal(err)
	}
	predRows := make([]int, ds.Table.NumRows())
	for i := range predRows {
		predRows[i] = -1
	}
	for _, l := range m.Root.Leaves() {
		l.RowIDs().Each(func(r int) {
			predRows[r] = l.ClusterID
		})
	}
	if ari := eval.AdjustedRandIndex(ds.Truth["labor"], predRows); ari < 0.5 {
		t.Errorf("labor map ARI = %.3f, want >= 0.5", ari)
	}
}
