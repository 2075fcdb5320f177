package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
)

func TestRegionScatter(t *testing.T) {
	tab, _, _ := laborTable(800, 30)
	e, err := NewExplorer(tab, Options{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegionScatter("WorkingLongHours", "Leisure"); err == nil {
		t.Error("scatter without map should fail")
	}
	id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	if _, err := e.SelectTheme(id); err != nil {
		t.Fatal(err)
	}
	sd, err := e.RegionScatter("WorkingLongHours", "Leisure")
	if err != nil {
		t.Fatal(err)
	}
	if sd.N != 800 || len(sd.X) != 800 || len(sd.Y) != len(sd.X) {
		t.Fatalf("N=%d len=%d", sd.N, len(sd.X))
	}
	// Leisure is constructed as a decreasing function of hours.
	if sd.Pearson > -0.5 {
		t.Errorf("pearson = %.3f, want strongly negative", sd.Pearson)
	}
	if sd.Spearman > -0.5 {
		t.Errorf("spearman = %.3f", sd.Spearman)
	}
	if _, err := e.RegionScatter("zzz", "Leisure"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.RegionScatter("CountryName", "Leisure"); err == nil {
		t.Error("categorical column should fail")
	}
	if _, err := e.RegionScatter("WorkingLongHours", "Leisure", 99); err == nil {
		t.Error("bad path should fail")
	}
}

func TestRegionScatterCapsPoints(t *testing.T) {
	tab, _, _ := laborTable(6000, 31)
	e, _ := NewExplorer(tab, Options{Seed: 31})
	id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	if _, err := e.SelectTheme(id); err != nil {
		t.Fatal(err)
	}
	sd, err := e.RegionScatter("WorkingLongHours", "AverageIncome")
	if err != nil {
		t.Fatal(err)
	}
	if sd.N != 6000 {
		t.Errorf("N = %d", sd.N)
	}
	if len(sd.X) != MaxScatterPoints {
		t.Errorf("points = %d, want capped %d", len(sd.X), MaxScatterPoints)
	}
}

func TestAnnotate(t *testing.T) {
	tab, _, _ := laborTable(400, 32)
	e, _ := NewExplorer(tab, Options{Seed: 32})
	if err := e.Annotate("note"); err == nil {
		t.Error("annotate without map should fail")
	}
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := m.Root.Leaves()[0]
	if err := e.Annotate("best work conditions", leaf.Path...); err != nil {
		t.Fatal(err)
	}
	if err := e.Annotate("double-check outliers", leaf.Path...); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Root.Find(leaf.Path)
	if notes := e.State().Annotations(got); len(notes) != 2 || notes[0] != "best work conditions" {
		t.Errorf("annotations = %v", notes)
	}
	if err := e.Annotate("x", 99, 99); err == nil {
		t.Error("bad path should fail")
	}
	// Annotations survive zoom + rollback (they live on the state).
	if _, err := e.Zoom(leaf.Path...); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, _ = e.CurrentMap().Root.Find(leaf.Path)
	if len(e.State().Annotations(got)) != 2 {
		t.Error("annotations lost across zoom/rollback")
	}
}

func TestFilterExprNarrowsAndRollsBack(t *testing.T) {
	tab, _, _ := laborTable(600, 33)
	e, _ := NewExplorer(tab, Options{Seed: 33})
	id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	if _, err := e.SelectTheme(id); err != nil {
		t.Fatal(err)
	}
	before := e.State().Rows.Len()
	m, err := e.FilterExpr("WorkingLongHours < 20")
	if err != nil {
		t.Fatal(err)
	}
	after := e.State().Rows.Len()
	if after >= before || after == 0 {
		t.Fatalf("filter rows = %d (before %d)", after, before)
	}
	if m == nil {
		t.Fatal("filter should rebuild the active map")
	}
	if e.State().Action.Kind != ActionFilter {
		t.Error("action should be filter")
	}
	if !strings.Contains(e.Query(), "WorkingLongHours < 20") {
		t.Errorf("query = %q", e.Query())
	}
	// Hours >= 20 tuples must be gone.
	hours := tab.ColumnByName("WorkingLongHours")
	e.State().Rows.Each(func(r int) {
		if hours.Float(r) >= 20 {
			t.Fatal("filter leaked rows")
		}
	})
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.State().Rows.Len() != before {
		t.Error("rollback after filter broken")
	}
}

func TestFilterBeforeAnyMap(t *testing.T) {
	tab, _, _ := laborTable(300, 34)
	e, _ := NewExplorer(tab, Options{Seed: 34})
	m, err := e.FilterExpr("AverageIncome >= 25")
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Error("no map should be built before a theme is selected")
	}
	if e.State().Rows.Len() == 0 {
		t.Error("filter should keep matching rows")
	}
}

func TestFilterErrors(t *testing.T) {
	tab, _, _ := laborTable(300, 35)
	e, _ := NewExplorer(tab, Options{Seed: 35})
	if _, err := e.Filter(nil); err == nil {
		t.Error("nil predicate should fail")
	}
	if _, err := e.FilterExpr("not a predicate !!!"); err == nil {
		t.Error("bad expression should fail")
	}
	if _, err := e.FilterExpr("AverageIncome > 99999"); err == nil {
		t.Error("empty result should fail")
	}
}

// checkImplicitQuery holds the explorer's implicit query to its promise:
// it must parse, execute, and return exactly the tuples of the current
// selection, projected on the theme columns.
func checkImplicitQuery(t *testing.T, e *Explorer, stage string) {
	t.Helper()
	res, err := e.ExecuteQuery()
	if err != nil {
		t.Fatalf("%s: executing %q: %v", stage, e.Query(), err)
	}
	sel := e.Selection()
	if res.NumRows() != sel.NumRows() {
		t.Fatalf("%s: query returned %d rows, selection has %d (query %q)",
			stage, res.NumRows(), sel.NumRows(), e.Query())
	}
	// Compare the theme-column values row by row (same order: both
	// derive from ascending base-table row order).
	cols := e.CurrentMap().Theme.Columns
	if res.NumCols() != len(cols) {
		t.Fatalf("%s: query returned %d columns, the theme has %d", stage, res.NumCols(), len(cols))
	}
	for _, col := range cols {
		qc := res.ColumnByName(col)
		sc := sel.ColumnByName(col)
		if qc == nil || sc == nil {
			t.Fatalf("%s: column %s missing", stage, col)
		}
		for i := 0; i < res.NumRows(); i++ {
			if qc.StringAt(i) != sc.StringAt(i) {
				t.Fatalf("%s: row %d differs: %q vs %q", stage, i, qc.StringAt(i), sc.StringAt(i))
			}
		}
	}
}

// TestImplicitQueryExecutes is the loop-closing invariant of the paper's
// query model: after any navigation sequence, the implicit query string
// must parse, execute, and return exactly the tuples of the current
// selection (projected on the theme columns).
func TestImplicitQueryExecutes(t *testing.T) {
	tab, _, _ := laborTable(900, 37)
	e, err := NewExplorer(tab, Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	// Navigate: zoom into the largest leaf, filter, and verify at each
	// step that ExecuteQuery() rows == Selection() rows.
	checkImplicitQuery(t, e, "after select")
	var biggest *Region
	for _, l := range m.Root.Leaves() {
		if biggest == nil || l.Count() > biggest.Count() {
			biggest = l
		}
	}
	if _, err := e.Zoom(biggest.Path...); err != nil {
		t.Fatal(err)
	}
	checkImplicitQuery(t, e, "after zoom")
	if _, err := e.FilterExpr("AverageIncome >= 10"); err != nil {
		t.Fatal(err)
	}
	checkImplicitQuery(t, e, "after filter")
}

// TestImplicitQueryExact: thresholds that need more than six
// significant digits must survive being written down. Two 200-row
// groups of x 8e-6 apart split at a midpoint whose six-digit form lies
// above both, so a query written with it selects all 400 rows for one
// leaf and none for the other; a filter recorded with it replays as a
// different selection. On both backings, every leaf's query must
// return exactly the zoomed selection, and a filter's recorded Expr
// must re-parse to the predicate that was typed.
func TestImplicitQueryExact(t *testing.T) {
	var b strings.Builder
	b.WriteString("x\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%s\n%s\n", strconv.FormatFloat(1.234561+float64(i)*1e-9, 'g', -1, 64),
			strconv.FormatFloat(1.234569+float64(i)*1e-9, 'g', -1, 64))
	}
	csvPath := filepath.Join(t.TempDir(), "close.csv")
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, seg := openBoth(t, csvPath)
	for _, rel := range []store.Relation{mem, seg} {
		e, err := NewExplorer(rel, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := e.AddTheme([]string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.SelectTheme(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Root.IsLeaf() {
			t.Fatal("the map did not split the two groups")
		}
		for _, leaf := range m.Root.Leaves() {
			if _, err := e.Zoom(leaf.Path...); err != nil {
				t.Fatal(err)
			}
			checkImplicitQuery(t, e, fmt.Sprintf("%T, leaf %v", rel, leaf.Path))
			if err := e.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		typed := store.NumCmp{Col: "x", Op: store.Lt, Val: 1.2345655}
		if _, err := e.FilterExpr(typed.Col + " < 1.2345655"); err != nil {
			t.Fatal(err)
		}
		expr := e.State().Action.Expr
		if got, err := store.ParsePredicate(expr); err != nil || got != typed {
			t.Errorf("%T: recorded filter %q re-parses to %v (%v), want %v", rel, expr, got, err, typed)
		}
	}
}

// TestImplicitQueryQuotesOddNames: the query stays executable over a
// table whose names and values only quoting can carry — a column that
// reads as a number, one that is a reserved word, and a split value with
// a quote in it.
func TestImplicitQueryQuotesOddNames(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	year, order, title := store.NewIntColumn("2010"), store.NewIntColumn("order"), store.NewStringColumn("title")
	for i := 0; i < 600; i++ {
		// The title names the cluster exactly; the numbers overlap, so the
		// tree has to split on the title.
		c := i % 3
		year.Append(int64(3*c + rng.Intn(6)))
		order.Append(int64(3*c + rng.Intn(6)))
		title.Append([]string{"Ocean's Eleven", "Psycho", "Vertigo"}[c])
	}
	tab := store.NewTable("films")
	tab.MustAddColumn(year)
	tab.MustAddColumn(order)
	tab.MustAddColumn(title)
	e, err := NewExplorer(tab, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := e.AddTheme([]string{"2010", "order", "title"})
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	checkImplicitQuery(t, e, "after select")
	var quoted *Region
	var conds []string
	for _, l := range m.Root.Leaves() {
		conds = append(conds, l.Describe())
		if strings.Contains(l.Describe(), "Ocean''s Eleven") {
			quoted = l
		}
	}
	if quoted == nil {
		t.Fatalf("no leaf is described by the quoted title, so the fixture does not cover value escaping: %q", conds)
	}
	if _, err := e.Zoom(quoted.Path...); err != nil {
		t.Fatal(err)
	}
	checkImplicitQuery(t, e, "after zoom")
	if _, err := e.FilterExpr(`"2010" >= 1 AND "order" IS NOT NULL`); err != nil {
		t.Fatal(err)
	}
	checkImplicitQuery(t, e, "after filter")
	for _, want := range []string{`'Ocean''s Eleven'`, `"2010" >= 1`, `"order" IS NOT NULL`} {
		if q := e.Query(); !strings.Contains(q, want) {
			t.Errorf("query %q lacks %q", q, want)
		}
	}
}

func TestRunSQLOnExplorer(t *testing.T) {
	tab, _, _ := laborTable(300, 38)
	e, _ := NewExplorer(tab, Options{Seed: 38})
	res, err := e.RunSQL("SELECT CountryName FROM countries WHERE AverageIncome >= 28 ORDER BY AverageIncome DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 || res.NumCols() != 1 {
		t.Fatalf("dims = %dx%d", res.NumRows(), res.NumCols())
	}
	if _, err := e.RunSQL("DROP TABLE countries"); err == nil {
		t.Error("non-SELECT should fail")
	}
}

func TestScatterHandlesNulls(t *testing.T) {
	tab, _, _ := laborTable(100, 36)
	// Null out some leisure values.
	e, _ := NewExplorer(tab, Options{Seed: 36})
	id, _ := e.AddTheme([]string{"WorkingLongHours"})
	if _, err := e.SelectTheme(id); err != nil {
		t.Fatal(err)
	}
	sd, err := e.RegionScatter("WorkingLongHours", "WorkingLongHours")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd.Pearson-1) > 1e-9 {
		t.Errorf("self correlation = %g", sd.Pearson)
	}
}

// TestInspectionReadsPagesNotRows: over a segment, a highlight, a
// histogram and a scatter of a region cost buffer-pool lookups in
// proportion to the pages the region's rows touch — a data and a null
// lookup per column page — not to its rows.
func TestInspectionReadsPagesNotRows(t *testing.T) {
	const n = 6000
	mem, seg := openLaborBoth(t, n, 33)
	em, err := NewExplorer(mem, Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewExplorer(seg, Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Explorer{em, es} {
		id, _ := e.AddTheme([]string{"WorkingLongHours", "AverageIncome"})
		if _, err := e.SelectTheme(id); err != nil {
			t.Fatal(err)
		}
	}
	pages := uint64(seg.Segment().NumPages())
	lookups := func(fn func()) uint64 {
		before := seg.PoolStats()
		fn()
		after := seg.PoolStats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	var hs, hm *Highlight
	var hds, hdm *HistogramData
	var sds, sdm *ScatterData
	if got := lookups(func() { hs, err = es.Highlight("Leisure") }); err != nil || got > 2*pages+4 {
		t.Fatalf("highlight of %d rows over %d pages: %d pool lookups, err %v", n, pages, got, err)
	}
	if got := lookups(func() { hds, err = es.RegionHistogram("Leisure", 8) }); err != nil || got > 2*pages {
		t.Fatalf("histogram of %d rows over %d pages: %d pool lookups, err %v", n, pages, got, err)
	}
	if got := lookups(func() { sds, err = es.RegionScatter("WorkingLongHours", "Leisure") }); err != nil || got > 4*pages {
		t.Fatalf("scatter of %d rows over %d pages: %d pool lookups, err %v", n, pages, got, err)
	}
	hm, _ = em.Highlight("Leisure")
	hdm, _ = em.RegionHistogram("Leisure", 8)
	sdm, _ = em.RegionScatter("WorkingLongHours", "Leisure")
	if !reflect.DeepEqual(hs, hm) || !reflect.DeepEqual(hds, hdm) || !reflect.DeepEqual(sds, sdm) {
		t.Fatal("inspection over the segment differs from the in-memory table's")
	}
}

// TestRegionScatterIsReadOnly: a scatter over a region large enough to
// be thinned must not draw from the session stream — select → scatter →
// project builds the same map as select → project — and the same region
// shows the same points on every call.
func TestRegionScatterIsReadOnly(t *testing.T) {
	trail := func(scatter bool) string {
		e, err := NewExplorer(pinnedTable(3*MaxScatterPoints, 7).Table, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SelectTheme(0); err != nil {
			t.Fatal(err)
		}
		if scatter {
			cols := e.Themes()[0].Columns
			first, err := e.RegionScatter(cols[0], cols[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(first.X) != MaxScatterPoints {
				t.Fatalf("points = %d, want thinned to %d", len(first.X), MaxScatterPoints)
			}
			again, _ := e.RegionScatter(cols[0], cols[1])
			if !reflect.DeepEqual(first, again) {
				t.Error("the same region showed different points on a second call")
			}
		}
		m, err := e.Project(1)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		mapDigest(&sb, "project", m)
		return sb.String()
	}
	if plain, read := trail(false), trail(true); plain != read {
		t.Errorf("a scatter changed the next map:\nwithout:\n%swith:\n%s", plain, read)
	}
}
