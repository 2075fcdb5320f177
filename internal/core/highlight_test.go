package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// writeMixedCSV renders a table with a column of every kind — string,
// float, int and bool — and a null in about one row of twenty.
func writeMixedCSV(t *testing.T, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"Aland", "Borduria", "Cordonia", "Drusselstein", "Elbonia"}
	var b strings.Builder
	b.WriteString("Name,Hours,Income,Visits,Member\n")
	for i := 0; i < n; i++ {
		c := i % 3
		cells := []string{
			names[c+rng.Intn(3)],
			fmt.Sprintf("%.6f", float64(8*c)+rng.NormFloat64()),
			fmt.Sprintf("%.6f", float64(20+5*c)+rng.NormFloat64()),
			fmt.Sprint(10*c + rng.Intn(5)),
			fmt.Sprint(c == 1 != (rng.Intn(10) == 0)),
		}
		if rng.Intn(20) == 0 {
			cells[1+rng.Intn(4)] = ""
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	path := filepath.Join(t.TempDir(), "mixed.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mixedMap opens an explorer over r and selects the theme of its four
// non-string columns.
func mixedMap(t *testing.T, r store.Relation) *Map {
	t.Helper()
	e, err := NewExplorer(r, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddTheme([]string{"Hours", "Income", "Visits", "Member"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Root.Children) == 0 {
		t.Fatal("the map has no split")
	}
	return m
}

// columnsOf lists the columns of r.
func columnsOf(r store.Relation) []store.Column {
	out := make([]store.Column, r.NumCols())
	for i := range out {
		out[i] = r.Column(i)
	}
	return out
}

// sameStats compares field for field, floats by their bits (any NaN is
// any other), as internal/store's differentials do.
func sameStats(a, b store.ColumnStats) bool {
	bits := func(s store.ColumnStats) (out [4]uint64) {
		for k, v := range [4]float64{s.Min, s.Max, s.Mean, s.Std} {
			if out[k] = math.Float64bits(v); v != v {
				out[k] = 0
			}
		}
		return out
	}
	return a.Name == b.Name && a.Type == b.Type && a.Count == b.Count && a.Nulls == b.Nulls && a.Distinct == b.Distinct &&
		bits(a) == bits(b) && reflect.DeepEqual(a.TopValues, b.TopValues)
}

// TestRegionStatsMatchStatsRows: on both backings, for every region of a
// map and every column kind, Region.Stats is StatsRows over the region's
// rows — on the first call, on the second (the memo), through a
// map-cache clone and for a hand-built region of the same rows.
func TestRegionStatsMatchStatsRows(t *testing.T) {
	mem, seg := openBoth(t, writeMixedCSV(t, 1500, 3))
	for _, r := range []store.Relation{mem, seg} {
		m := mixedMap(t, r)
		regions, clones := regionsOf(m), regionsOf(cloneForReuse(m))
		for k, reg := range regions {
			for _, col := range columnsOf(r) {
				want := store.StatsRows(col, reg.RowIDs())
				hand := &Region{Rows: reg.RowIDs().AppendTo(nil)}
				for name, got := range map[string]store.ColumnStats{
					"first": reg.Stats(col), "second": reg.Stats(col), "clone": clones[k].Stats(col), "hand-built": hand.Stats(col),
				} {
					if !sameStats(got, want) {
						t.Fatalf("%T, region %v, %s (%s call): Stats = %+v, StatsRows = %+v", r, reg.Path, col.Name(), name, got, want)
					}
				}
			}
		}
	}
}

// TestHighlightRevisitAllocates: a highlight of a region of more than
// 100 000 rows allocates the distinct-value table once; highlighting it
// again on the map-cache clone a revisit serves allocates under 16 KB.
func TestHighlightRevisitAllocates(t *testing.T) {
	tbl, _, _ := laborTable(330_000, 4)
	e, err := NewExplorer(tbl, Options{Seed: 1, SampleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	path := largestLeaf(m)
	region, _ := m.Root.Find(path)
	n := region.Count()
	if n < 100_000 {
		t.Fatalf("the largest region holds %d rows, want at least 100 000", n)
	}
	highlight := func() {
		if _, err := e.Highlight("Leisure", path...); err != nil {
			t.Fatal(err)
		}
	}
	if got, table := allocated(highlight), uint64(8*(3*min(n, 100_001)/2+1)); got < table {
		t.Errorf("the first highlight of %d rows allocated %d bytes, less than its table (%d)", n, got, table)
	}
	hits := e.ReuseStats().Map.Hits
	if _, err := e.SelectTheme(0); err != nil || e.ReuseStats().Map.Hits != hits+1 {
		t.Fatalf("reselecting the theme was not a map-cache hit (err %v)", err)
	}
	if got := allocated(highlight); got >= 16<<10 {
		t.Errorf("highlighting the region again on the clone allocated %d bytes, want under 16 KB", got)
	}
}

// TestHighlightStatsNotAliased: a caller that writes into the top values
// a highlight returned does not change the next highlight of the region.
func TestHighlightStatsNotAliased(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	path := leafPath(t, e)
	h, err := e.Highlight("CountryName", path...)
	if err != nil || len(h.Stats.TopValues) == 0 {
		t.Fatalf("highlight: %d top values, err %v", len(h.Stats.TopValues), err)
	}
	want := h.Stats.TopValues[0]
	h.Stats.TopValues[0] = store.ValueCount{Value: "overwritten", Count: -1}
	again, err := e.Highlight("CountryName", path...)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Stats.TopValues[0]; got != want {
		t.Errorf("the next highlight's first top value is %+v, want %+v", got, want)
	}
}

// TestHighlightConcurrentClones: goroutines reading a highlight's
// statistics on clones of one map — pairs on the same region and column
// at once, the pairs on different regions — all get StatsRows' answer.
// Run under -race by `make race-derived`.
func TestHighlightConcurrentClones(t *testing.T) {
	mem, err := store.ReadCSVFile(writeMixedCSV(t, 1500, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := mixedMap(t, mem)
	cols := columnsOf(mem)
	var want [][]store.ColumnStats
	for _, r := range regionsOf(orig) {
		var row []store.ColumnStats
		for _, col := range cols {
			row = append(row, store.StatsRows(col, r.RowIDs()))
		}
		want = append(want, row)
	}
	cold := mixedMap(t, mem)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			regions := regionsOf(cloneForReuse(cold))
			for k := range regions {
				i := (k + off) % len(regions)
				for c, col := range cols {
					if got := regions[i].Stats(col); !sameStats(got, want[i][c]) {
						t.Errorf("region %v, %s: Stats = %+v, want %+v", regions[i].Path, col.Name(), got, want[i][c])
					}
				}
			}
		}(g / 2)
	}
	wg.Wait()
}
