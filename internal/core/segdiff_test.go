package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/segment"
)

// writeLaborCSV renders a Fig. 1-style dataset to CSV so the same bytes
// feed both the in-memory reader and the segment converter.
func writeLaborCSV(t *testing.T, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("CountryName,WorkingLongHours,AverageIncome,Leisure,Unemployment,LongTermUnemployment\n")
	highNames := []string{"Switzerland", "Norway", "Canada"}
	otherNames := []string{"Aland", "Borduria", "Cordonia", "Drusselstein"}
	for i := 0; i < n; i++ {
		var hours, income float64
		var name string
		switch i % 3 {
		case 0:
			hours = 26 + rng.NormFloat64()*2
			income = 20 + rng.NormFloat64()*4
			name = otherNames[rng.Intn(len(otherNames))]
		case 1:
			hours = 9 + rng.NormFloat64()*2
			income = 30 + rng.NormFloat64()*2.5
			name = highNames[rng.Intn(len(highNames))]
		default:
			hours = 11 + rng.NormFloat64()*2
			income = 15 + rng.NormFloat64()*2
			name = otherNames[rng.Intn(len(otherNames))]
		}
		leisure := 16 - hours*0.3 + rng.NormFloat64()*0.5
		unemp := 4 + rng.NormFloat64()
		if rng.Float64() < 0.5 {
			unemp = 12 + rng.NormFloat64()
		}
		lt := unemp*0.4 + rng.NormFloat64()*0.3
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%.6f,%.6f,%.6f\n", name, hours, income, leisure, unemp, lt)
	}
	path := filepath.Join(t.TempDir(), "labor.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// regionsEqual deep-compares two region trees, treating NaN
// silhouettes as equal and requiring bit-identical floats otherwise.
func regionsEqual(a, b *Region) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !reflect.DeepEqual(a.Path, b.Path) ||
		!reflect.DeepEqual(a.Split, b.Split) ||
		!reflect.DeepEqual(a.Condition, b.Condition) ||
		!reflect.DeepEqual(a.RowIDs().AppendTo(nil), b.RowIDs().AppendTo(nil)) ||
		a.ClusterID != b.ClusterID {
		return false
	}
	if math.Float64bits(a.Silhouette) != math.Float64bits(b.Silhouette) &&
		!(math.IsNaN(a.Silhouette) && math.IsNaN(b.Silhouette)) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !regionsEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func mapsEqual(a, b *Map) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return reflect.DeepEqual(a.Theme, b.Theme) &&
		a.K == b.K &&
		math.Float64bits(a.Silhouette) == math.Float64bits(b.Silhouette) &&
		math.Float64bits(a.TreeAccuracy) == math.Float64bits(b.TreeAccuracy) &&
		a.SampleSize == b.SampleSize &&
		regionsEqual(a.Root, b.Root)
}

// TestSegmentBackedExplorerMatchesInMemory is the end-to-end
// differential: the same CSV explored through the in-memory table and
// through a converted segment (small pages, small pool) must produce
// identical themes, identical maps and identical zooms — the
// out-of-core engine is an implementation detail, not a semantic
// change.
func TestSegmentBackedExplorerMatchesInMemory(t *testing.T) {
	csvPath := writeLaborCSV(t, 600, 17)
	mem, err := store.ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(filepath.Dir(csvPath), "labor.seg")
	if _, err := store.BuildSegment(csvPath, segPath, &store.SegmentBuildOptions{RowsPerPage: 128}); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(64*1024, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	seg.SetName(mem.Name())

	opts := Options{Seed: 17}
	em, err := NewExplorer(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewExplorer(seg, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(em.Themes(), es.Themes()) {
		t.Fatalf("themes diverge:\n mem: %+v\n seg: %+v", em.Themes(), es.Themes())
	}
	if !mapsEqual(em.CurrentMap(), es.CurrentMap()) {
		t.Fatalf("initial maps diverge:\n mem: %+v\n seg: %+v", em.CurrentMap(), es.CurrentMap())
	}

	// Walk the same interaction script through both explorers.
	for themeID := range em.Themes() {
		mm, errM := em.SelectTheme(themeID)
		ms, errS := es.SelectTheme(themeID)
		if (errM == nil) != (errS == nil) {
			t.Fatalf("theme %d: error divergence mem=%v seg=%v", themeID, errM, errS)
		}
		if errM != nil {
			continue
		}
		if !mapsEqual(mm, ms) {
			t.Fatalf("theme %d maps diverge", themeID)
		}
	}

	// Zoom into the first child region with enough rows on both.
	root := em.CurrentMap().Root
	for ci, child := range root.Children {
		if child.Count() < 50 {
			continue
		}
		zm, errM := em.Zoom(ci)
		zs, errS := es.Zoom(ci)
		if (errM == nil) != (errS == nil) {
			t.Fatalf("zoom %d: error divergence mem=%v seg=%v", ci, errM, errS)
		}
		if errM == nil && !mapsEqual(zm, zs) {
			t.Fatalf("zoom %d maps diverge", ci)
		}
		break
	}

	// The selections materialized from both backings are identical
	// tables.
	selM, selS := em.Selection(), es.Selection()
	if selM.NumRows() != selS.NumRows() {
		t.Fatalf("selection sizes diverge: %d vs %d", selM.NumRows(), selS.NumRows())
	}
	for ci := 0; ci < selM.NumCols(); ci++ {
		for r := 0; r < selM.NumRows(); r++ {
			if selM.Column(ci).StringAt(r) != selS.Column(ci).StringAt(r) {
				t.Fatalf("selection cell (%d,%d) diverges: %q vs %q",
					ci, r, selM.Column(ci).StringAt(r), selS.Column(ci).StringAt(r))
			}
		}
	}

	// Filter through the predicate path exercises ScanRows over the
	// segment relation inside the explorer.
	fm, errM := em.Filter(store.NumCmp{Col: "AverageIncome", Op: store.Gt, Val: 20})
	fs, errS := es.Filter(store.NumCmp{Col: "AverageIncome", Op: store.Gt, Val: 20})
	if (errM == nil) != (errS == nil) {
		t.Fatalf("filter error divergence: mem=%v seg=%v", errM, errS)
	}
	if errM == nil && !mapsEqual(fm, fs) {
		t.Fatal("filtered maps diverge")
	}
}

// TestSegmentBackedExplorerBig runs the pipeline on a larger segment
// when BLAEU_BIG_TESTS is set: a million-row segment explored under a
// deliberately small page budget, asserting the cold build completes.
func TestSegmentBackedExplorerBig(t *testing.T) {
	if os.Getenv("BLAEU_BIG_TESTS") == "" {
		t.Skip("set BLAEU_BIG_TESTS=1 to run the large out-of-core test")
	}
	csvPath := writeLaborCSV(t, 1_000_000, 23)
	segPath := filepath.Join(filepath.Dir(csvPath), "big.seg")
	if _, err := store.BuildSegment(csvPath, segPath, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(8<<20, nil)) // 8 MiB pool, ~46 MB of pages
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	e, err := NewExplorer(seg, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Themes()) == 0 || e.CurrentMap() == nil {
		t.Fatal("big segment-backed explorer produced no themes or map")
	}
	if s := seg.Segment().Pool().Stats(); s.Used > s.Budget {
		t.Fatalf("pool over budget after cold build: %+v", s)
	}
}
