package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/segment"
)

// mapTable rebuilds t column by column: f maps each column to its
// replacement, in the order f returns them.
func mapTable(t *store.Table, f func(c store.Column) store.Column) *store.Table {
	out := store.NewTable(t.Name())
	for i := 0; i < t.NumCols(); i++ {
		out.MustAddColumn(f(t.Column(i)))
	}
	return out
}

// floatsOf returns the values of a null-free numeric column.
func floatsOf(c store.Column) []float64 {
	vals := make([]float64, c.Len())
	for i := range vals {
		vals[i] = c.Float(i)
	}
	return vals
}

// scaleFloats multiplies every float column of t by k.
func scaleFloats(k float64) func(*store.Table) *store.Table {
	return func(t *store.Table) *store.Table {
		return mapTable(t, func(c store.Column) store.Column {
			if c.Type() != store.Float64 {
				return c
			}
			vals := floatsOf(c)
			for i := range vals {
				vals[i] *= k
			}
			return store.NewFloatColumnFrom(c.Name(), vals)
		})
	}
}

// reverseColumns lists t's columns last first.
func reverseColumns(t *store.Table) *store.Table {
	out := store.NewTable(t.Name())
	for i := t.NumCols() - 1; i >= 0; i-- {
		out.MustAddColumn(t.Column(i))
	}
	return out
}

// renameReversed renames t's columns so that their names sort in the
// reverse order — the column whose name sorts i-th of n is named for the
// (n-1-i)-th — a bijection that keeps every column's values and place.
func renameReversed(t *store.Table) *store.Table {
	sorted := slices.Clone(t.ColumnNames())
	slices.Sort(sorted)
	return mapTable(t, func(c store.Column) store.Column {
		rank, _ := slices.BinarySearch(sorted, c.Name())
		return store.NewFloatColumnFrom(fmt.Sprintf("v%03d", len(sorted)-1-rank), floatsOf(c))
	})
}

// roundFloats rounds every float column of t to quarters, held as
// integral Float64 values (quarters times four).
func roundFloats(t *store.Table) *store.Table {
	return mapTable(t, func(c store.Column) store.Column {
		vals := floatsOf(c)
		for i := range vals {
			vals[i] = math.Round(vals[i] * 4)
		}
		return store.NewFloatColumnFrom(c.Name(), vals)
	})
}

// floatsAsInts holds every integral float column of t as Int64.
func floatsAsInts(t *store.Table) *store.Table {
	return mapTable(t, func(c store.Column) store.Column {
		vals := make([]int64, c.Len())
		for i := range vals {
			vals[i] = int64(c.Float(i))
		}
		return store.NewIntColumnFrom(c.Name(), vals)
	})
}

// lawSegment writes t to CSV and builds a segment of it. Floats are
// written in exponent form, so an integral Float64 stays Float64 through
// type inference, and every value round-trips exactly.
func lawSegment(t *testing.T, tab *store.Table) *store.SegmentTable {
	t.Helper()
	var b strings.Builder
	b.WriteString(strings.Join(tab.ColumnNames(), ","))
	b.WriteByte('\n')
	for r := 0; r < tab.NumRows(); r++ {
		for i := 0; i < tab.NumCols(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			c := tab.Column(i)
			if c.Type() == store.Float64 {
				b.WriteString(strconv.FormatFloat(c.Float(r), 'e', -1, 64))
			} else {
				b.WriteString(c.StringAt(r))
			}
		}
		b.WriteByte('\n')
	}
	dir := t.TempDir()
	csvPath, segPath := filepath.Join(dir, "law.csv"), filepath.Join(dir, "law.seg")
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.BuildSegment(csvPath, segPath, &store.SegmentBuildOptions{RowsPerPage: 128}); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(64*1024, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	for i, c := range tab.ColumnNames() {
		if got := seg.ColumnByName(c).Type(); got != tab.Column(i).Type() {
			t.Fatalf("column %s came back from the segment as %v, want %v", c, got, tab.Column(i).Type())
		}
	}
	return seg
}

// lawWalk drives select (theme 0) → zoom into the largest leaf (the one
// with the lowest first row on ties, which no mirroring of the tree
// moves) → project (theme 1) on rel and returns the three maps.
func lawWalk(t *testing.T, rel store.Relation) []*Map {
	t.Helper()
	e, err := NewExplorer(rel, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Themes()) < 2 {
		t.Fatalf("need two themes to project, have %d", len(e.Themes()))
	}
	sel, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K < 2 {
		t.Fatalf("the select found k=%d: a law over one region holds vacuously", sel.K)
	}
	var target *Region
	for _, l := range sel.Root.Leaves() {
		if target == nil || l.Count() > target.Count() ||
			l.Count() == target.Count() && l.RowIDs().AppendTo(nil)[0] < target.RowIDs().AppendTo(nil)[0] {
			target = l
		}
	}
	zoom, err := e.Zoom(target.Path...)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := e.Project(1)
	if err != nil {
		t.Fatal(err)
	}
	return []*Map{sel, zoom, proj}
}

// scaledDigest is mapDigest with every numeric split constant
// multiplied by k and written exactly, so a law can hold the constants
// to the bit.
func scaledDigest(k float64) func([]*Map) string {
	return func(maps []*Map) string {
		var sb strings.Builder
		for i, m := range maps {
			fmt.Fprintf(&sb, "map %d k=%d sample=%d\n", i, m.K, m.SampleSize)
			var walk func(r *Region)
			walk = func(r *Region) {
				split := "-"
				if p, ok := r.Split.(store.NumCmp); ok {
					p.Val *= k
					split = store.ExactString(p)
				} else if r.Split != nil {
					split = store.ExactString(r.Split)
				}
				fmt.Fprintf(&sb, " %v n=%d c=%d %s\n", r.Path, r.Count(), r.ClusterID, split)
				for _, c := range r.Children {
					walk(c)
				}
			}
			walk(m.Root)
		}
		return sb.String()
	}
}

// leafSets renders each map as the set of its leaves' row sets: the
// partition of the selection, whatever paths lead to it.
func leafSets(maps []*Map) string {
	var sb strings.Builder
	for i, m := range maps {
		var leaves []string
		for _, l := range m.Root.Leaves() {
			leaves = append(leaves, fmt.Sprint(l.RowIDs().AppendTo(nil)))
		}
		slices.Sort(leaves)
		fmt.Fprintf(&sb, "map %d: %s\n", i, strings.Join(leaves, " | "))
	}
	return sb.String()
}

// TestMetamorphicLaws holds the pipeline to what it is invariant to by
// construction. Each law builds a base table and a transform of it,
// runs one walk on each, in memory and through a segment, and compares
// the two walks' maps:
//
//   - scaling every float column by a power of two scales the means, the
//     deviations and every midpoint exactly, so z-scored vectors, the
//     clustering and the tree are the same, the split constants scaled;
//   - reversing the columns changes no theme, no dimension order and no
//     map;
//   - negating every float column negates the z-scored vectors, which
//     leaves every distance as it was; the tree's cuts flip, so the law
//     is on leaf row sets, not paths;
//   - integral values held as Int64 vectorize and split as the same
//     values held as Float64;
//   - renaming the columns so that their names sort the other way
//     changes no theme and no partition: names only label the splits.
func TestMetamorphicLaws(t *testing.T) {
	planted := pinnedTable(600, 11).Table
	same := func(t *store.Table) *store.Table { return t }
	laws := []struct {
		name            string
		base, transform func(*store.Table) *store.Table
		// want renders the base walk, got the transformed one.
		want, got func([]*Map) string
	}{
		{"scale x2", same, scaleFloats(2), scaledDigest(2), scaledDigest(1)},
		{"scale x0.5", same, scaleFloats(0.5), scaledDigest(0.5), scaledDigest(1)},
		{"reverse columns", same, reverseColumns, scaledDigest(1), scaledDigest(1)},
		{"negate floats", same, scaleFloats(-1), leafSets, leafSets},
		{"float vs int", roundFloats, floatsAsInts, leafSets, leafSets},
		{"rename reversing sort order", same, renameReversed, leafSets, leafSets},
	}
	for _, law := range laws {
		t.Run(law.name, func(t *testing.T) {
			base := law.base(planted)
			transformed := law.transform(base)
			backings := []struct {
				name string
				of   func(*store.Table) store.Relation
			}{
				{"memory", func(tab *store.Table) store.Relation { return tab }},
				{"segment", func(tab *store.Table) store.Relation { return lawSegment(t, tab) }},
			}
			for _, b := range backings {
				want := law.want(lawWalk(t, b.of(base)))
				if got := law.got(lawWalk(t, b.of(transformed))); got != want {
					t.Errorf("%s: the transformed table's walk\n%s\nthe base table's\n%s", b.name, got, want)
				}
			}
		})
	}
}
