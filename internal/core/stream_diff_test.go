package core

import (
	"reflect"
	"testing"

	"repro/internal/store"
	"repro/internal/store/segment"
)

// openLaborBoth materializes the same labor CSV as an in-memory table
// and a small-page segment (the two backings of every differential).
func openLaborBoth(t *testing.T, n int, seed int64) (*store.Table, *store.SegmentTable) {
	t.Helper()
	return openBoth(t, writeLaborCSV(t, n, seed))
}

// openBoth reads a CSV as an in-memory table and converts it to a
// small-page segment.
func openBoth(t *testing.T, csvPath string) (*store.Table, *store.SegmentTable) {
	t.Helper()
	mem, err := store.ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	segPath := csvPath + ".seg"
	if _, err := store.BuildSegment(csvPath, segPath, &store.SegmentBuildOptions{RowsPerPage: 128}); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(64*1024, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	seg.SetName(mem.Name())
	return mem, seg
}

// driveExplorer runs the standard interaction script — select every
// theme, zoom, filter — and returns every map it produced, in order.
func driveExplorer(t *testing.T, e *Explorer) []*Map {
	t.Helper()
	out := []*Map{e.CurrentMap()}
	for themeID := range e.Themes() {
		m, err := e.SelectTheme(themeID)
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	root := e.CurrentMap().Root
	for ci, child := range root.Children {
		if child.Count() < 50 {
			continue
		}
		if m, err := e.Zoom(ci); err == nil {
			out = append(out, m)
		}
		break
	}
	if m, err := e.Filter(store.NumCmp{Col: "AverageIncome", Op: store.Gt, Val: 20}); err == nil {
		out = append(out, m)
	}
	return out
}

// materialized is the baseline backing of the differential below: a
// relation whose every column gather goes through a full-width
// Relation.Gather and which, being no store type, the scan sees without
// pages or zone maps and the matcher compiler evaluates through the
// generic Column interface, row by row.
type materialized struct{ store.Relation }

func (m materialized) Column(i int) store.Column {
	return materializedCol{m.Relation.Column(i), m.Relation}
}

func (m materialized) ColumnByName(name string) store.Column {
	c := m.Relation.ColumnByName(name)
	if c == nil {
		return nil
	}
	return materializedCol{c, m.Relation}
}

type materializedCol struct {
	store.Column
	rel store.Relation
}

func (c materializedCol) Gather(rows []int) store.Column {
	return c.rel.Gather(rows).ColumnByName(c.Name())
}

// Code keeps string columns discretizing by dictionary code, as both
// store backings do.
func (c materializedCol) Code(i int) int32 {
	return c.Column.(interface{ Code(int) int32 }).Code(i)
}

// TestStreamedFrontHalfMatchesMaterialized is the front half's
// differential bar: with pinned seeds, the production build front half
// (projected sample gathers, scan-path filters) must produce
// byte-identical maps to the materialized path (full-width Gather,
// row-loop filters) on both backings.
func TestStreamedFrontHalfMatchesMaterialized(t *testing.T) {
	mem, seg := openLaborBoth(t, 600, 17)
	for _, backing := range []store.Relation{mem, seg} {
		baseline, err := NewExplorer(materialized{backing}, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		wantMaps := driveExplorer(t, baseline)
		streamed, err := NewExplorer(backing, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		gotMaps := driveExplorer(t, streamed)
		if len(gotMaps) != len(wantMaps) {
			t.Fatalf("%T: %d maps vs %d", backing, len(gotMaps), len(wantMaps))
		}
		for i := range wantMaps {
			if !mapsEqual(gotMaps[i], wantMaps[i]) {
				t.Fatalf("%T: map %d diverges between streamed and materialized paths", backing, i)
			}
		}
		if !reflect.DeepEqual(streamed.State().Rows.AppendTo(nil), baseline.State().Rows.AppendTo(nil)) {
			t.Fatalf("%T: final selections diverge", backing)
		}
	}
}
