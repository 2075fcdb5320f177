package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store/segment"
)

// writeTestCSV renders a deterministic CSV exercising every inferred
// type, nulls in every column, and enough rows to span several pages.
func writeTestCSV(t testing.TB, rows int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	b.WriteString("x,count,label,flag,ragged\n")
	labels := []string{"alpha", "beta", "gamma", "delta"}
	for r := 0; r < rows; r++ {
		// x: float with nulls; count: int with nulls; label: strings;
		// flag: bools; ragged: all-null column.
		if r%9 == 4 {
			b.WriteString("NA")
		} else {
			fmt.Fprintf(&b, "%.4f", rng.NormFloat64()*10)
		}
		b.WriteByte(',')
		if r%13 == 6 {
			b.WriteString("null")
		} else {
			fmt.Fprintf(&b, "%d", rng.Intn(1000)-500)
		}
		b.WriteByte(',')
		if r%11 == 2 {
			// empty cell = null
		} else {
			b.WriteString(labels[rng.Intn(len(labels))])
		}
		b.WriteByte(',')
		if r%7 == 5 {
			b.WriteString("N/A")
		} else if rng.Intn(2) == 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
		b.WriteString(",\n")
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openBoth converts the CSV both ways: in-memory ReadCSV and the
// streaming segment path, with a small page size so multiple pages and
// a partial tail page are exercised.
func openBoth(t testing.TB, rows int, pageBudget int64) (*Table, *SegmentTable) {
	t.Helper()
	csvPath := writeTestCSV(t, rows)
	mem, err := ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(filepath.Dir(csvPath), "data.seg")
	n, err := BuildSegment(csvPath, segPath, &SegmentBuildOptions{RowsPerPage: 64})
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != rows {
		t.Fatalf("BuildSegment wrote %d rows, want %d", n, rows)
	}
	st, err := OpenSegmentTableWith(segPath, segment.NewPoolObs(pageBudget, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetName(mem.Name())
	return mem, st
}

// assertRelationsEqual compares two relations cell by cell through the
// Column interface (types, nulls, rendered values, floats bit-exact).
func assertRelationsEqual(t *testing.T, mem, seg Relation) {
	t.Helper()
	if mem.NumRows() != seg.NumRows() || mem.NumCols() != seg.NumCols() {
		t.Fatalf("shape: mem %d×%d, seg %d×%d", mem.NumRows(), mem.NumCols(), seg.NumRows(), seg.NumCols())
	}
	if mem.Schema().String() != seg.Schema().String() {
		t.Fatalf("schema: mem %q, seg %q", mem.Schema(), seg.Schema())
	}
	for ci := 0; ci < mem.NumCols(); ci++ {
		mc, sc := mem.Column(ci), seg.Column(ci)
		if mc.NullCount() != sc.NullCount() {
			t.Fatalf("column %s: null count %d vs %d", mc.Name(), mc.NullCount(), sc.NullCount())
		}
		for r := 0; r < mem.NumRows(); r++ {
			if mc.IsNull(r) != sc.IsNull(r) {
				t.Fatalf("column %s row %d: IsNull %v vs %v", mc.Name(), r, mc.IsNull(r), sc.IsNull(r))
			}
			if mc.StringAt(r) != sc.StringAt(r) {
				t.Fatalf("column %s row %d: %q vs %q", mc.Name(), r, mc.StringAt(r), sc.StringAt(r))
			}
			mv, sv := mc.Float(r), sc.Float(r)
			if math.Float64bits(mv) != math.Float64bits(sv) && !(math.IsNaN(mv) && math.IsNaN(sv)) {
				t.Fatalf("column %s row %d: float %v vs %v", mc.Name(), r, mv, sv)
			}
		}
	}
}

func TestSegmentTableMatchesReadCSV(t *testing.T) {
	mem, seg := openBoth(t, 500, 1<<20)
	assertRelationsEqual(t, mem, seg)
}

// TestSegmentTableTinyBudget re-runs the differential with a pool too
// small to hold even one page: every access loads, nothing caches, and
// the results must not change.
func TestSegmentTableTinyBudget(t *testing.T) {
	mem, seg := openBoth(t, 300, 0)
	assertRelationsEqual(t, mem, seg)
}

// testPredicates is a spread of shapes over the test schema: range
// scans, dictionary equality (present, absent, negated), null tests,
// conjunctions, disjunctions and complements.
func testPredicates() []Predicate {
	return []Predicate{
		NumCmp{Col: "x", Op: Lt, Val: 0},
		NumCmp{Col: "x", Op: Ge, Val: 5},
		NumCmp{Col: "count", Op: Le, Val: -100},
		NumCmp{Col: "count", Op: Eq, Val: 42},
		NumCmp{Col: "count", Op: Ne, Val: 0},
		NumCmp{Col: "flag", Op: Eq, Val: 1},
		NumCmp{Col: "missing", Op: Gt, Val: 0},
		NumCmp{Col: "label", Op: Gt, Val: 0}, // numeric cmp on strings
		StrEq{Col: "label", Val: "beta"},
		StrEq{Col: "label", Val: "beta", Neq: true},
		StrEq{Col: "label", Val: "no-such-level"},
		StrEq{Col: "label", Val: "no-such-level", Neq: true},
		StrIn{Col: "label", Vals: []string{"alpha", "delta"}},
		StrIn{Col: "label", Vals: []string{"nope"}},
		IsNull{Col: "x"},
		IsNull{Col: "x", Not: true},
		IsNull{Col: "ragged"},
		IsNull{Col: "ragged", Not: true},
		And{NumCmp{Col: "x", Op: Gt, Val: -5}, NumCmp{Col: "x", Op: Lt, Val: 5}},
		And{StrEq{Col: "label", Val: "gamma"}, NumCmp{Col: "count", Op: Ge, Val: 0}},
		And{},
		Or{NumCmp{Col: "x", Op: Gt, Val: 15}, IsNull{Col: "count"}},
		Or{},
		Not{P: StrEq{Col: "label", Val: "alpha"}},
		OrNull{P: NumCmp{Col: "x", Op: Ge, Val: 0}, Col: "x"},
		True{},
	}
}

// TestSegmentFilterMatchesTableFilter is the filter differential: the
// segment's page-skipping vectorized scan, the in-memory compiled
// scan, and the reference per-row Predicate.Matches loop must agree on
// every predicate shape.
func TestSegmentFilterMatchesTableFilter(t *testing.T) {
	mem, seg := openBoth(t, 700, 1<<20)
	for _, p := range testPredicates() {
		var want []int
		for i := 0; i < mem.NumRows(); i++ {
			if p.Matches(mem, i) {
				want = append(want, i)
			}
		}
		if got := mem.Filter(p); !equalInts(got, want) {
			t.Errorf("Table.Filter(%s) = %d rows, reference %d rows", p, len(got), len(want))
		}
		if got := seg.Filter(p); !equalInts(got, want) {
			t.Errorf("SegmentTable.Filter(%s) = %d rows, reference %d rows", p, len(got), len(want))
		}
		// Per-row Matches over the segment relation must agree too.
		var segRef []int
		for i := 0; i < seg.NumRows(); i++ {
			if p.Matches(seg, i) {
				segRef = append(segRef, i)
			}
		}
		if !equalInts(segRef, want) {
			t.Errorf("Matches over segment (%s) = %d rows, reference %d rows", p, len(segRef), len(want))
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSegmentGatherAndWhere(t *testing.T) {
	mem, seg := openBoth(t, 400, 1<<20)
	rng := rand.New(rand.NewSource(3))
	rows := SampleIndices(mem.NumRows(), 97, rng)
	assertRelationsEqual(t, mem.Gather(rows), seg.Gather(rows))
	// Unsorted (random-access) gather must work too.
	shuffled := append([]int(nil), rows...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	assertRelationsEqual(t, mem.Gather(shuffled), seg.Gather(shuffled))
	p := And{NumCmp{Col: "x", Op: Gt, Val: 0}, StrEq{Col: "label", Val: "alpha", Neq: true}}
	assertRelationsEqual(t, mem.Gather(mem.Filter(p)), seg.Gather(seg.Filter(p)))
	assertRelationsEqual(t, mem.Head(13), seg.Head(13))
}

// TestSegmentPageSkipping checks the zone maps actually skip: a
// predicate selecting values beyond the column range must answer
// without touching any data page.
func TestSegmentPageSkipping(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "sorted.csv")
	var b strings.Builder
	b.WriteString("v\n")
	for r := 0; r < 640; r++ {
		fmt.Fprintf(&b, "%d\n", r)
	}
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(filepath.Dir(csvPath), "sorted.seg")
	if _, err := BuildSegment(csvPath, segPath, &SegmentBuildOptions{RowsPerPage: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenSegmentTableWith(segPath, segment.NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	before := st.Segment().Pool().Stats()
	if got := st.Filter(NumCmp{Col: "v", Op: Gt, Val: 1e9}); len(got) != 0 {
		t.Fatalf("impossible predicate matched %d rows", len(got))
	}
	after := st.Segment().Pool().Stats()
	if after.Misses != before.Misses {
		t.Fatalf("out-of-range filter loaded %d pages; zone maps should skip all",
			after.Misses-before.Misses)
	}
	// A one-page range on sorted data loads exactly one data page.
	before = after
	got := st.Filter(And{NumCmp{Col: "v", Op: Ge, Val: 128}, NumCmp{Col: "v", Op: Lt, Val: 192}})
	if len(got) != 64 || got[0] != 128 {
		t.Fatalf("range filter returned %d rows starting %v", len(got), got[:min(3, len(got))])
	}
	after = st.Segment().Pool().Stats()
	if loads := after.Misses - before.Misses; loads != 1 {
		t.Fatalf("one-page range loaded %d pages, want 1", loads)
	}
}

// TestSegmentTableConcurrentScan is the -race stress over a shared
// segment relation: concurrent filters, gathers and stats reads
// through one pool.
func TestSegmentTableConcurrentScan(t *testing.T) {
	mem, seg := openBoth(t, 600, 16*1024)
	want := mem.Filter(NumCmp{Col: "x", Op: Gt, Val: 0})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for round := 0; round < 3; round++ {
				got := seg.Filter(NumCmp{Col: "x", Op: Gt, Val: 0})
				if !equalInts(got, want) {
					done <- fmt.Errorf("worker %d: filter diverged (%d vs %d rows)", w, len(got), len(want))
					return
				}
				sub := seg.Gather(got[:min(50, len(got))])
				if sub.NumRows() != min(50, len(want)) {
					done <- fmt.Errorf("worker %d: gather got %d rows", w, sub.NumRows())
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := seg.Segment().Pool().Stats(); s.Pinned != 0 {
		t.Fatalf("pages left pinned: %+v", s)
	}
}

func TestSegmentTableStats(t *testing.T) {
	mem, seg := openBoth(t, 350, 1<<20)
	for ci := 0; ci < mem.NumCols(); ci++ {
		ms := ComputeStats(mem.Column(ci))
		ss := ComputeStats(seg.Column(ci))
		// TopValues ordering is deterministic (count desc, value asc) so
		// direct struct comparison works; compare piecewise for clearer
		// failures.
		if ms.Count != ss.Count || ms.Nulls != ss.Nulls || ms.Distinct != ss.Distinct {
			t.Fatalf("column %s counts: mem %+v seg %+v", ms.Name, ms, ss)
		}
		if math.Float64bits(ms.Mean) != math.Float64bits(ss.Mean) && !(math.IsNaN(ms.Mean) && math.IsNaN(ss.Mean)) {
			t.Fatalf("column %s mean: %v vs %v", ms.Name, ms.Mean, ss.Mean)
		}
		if len(ms.TopValues) != len(ss.TopValues) {
			t.Fatalf("column %s top values: %v vs %v", ms.Name, ms.TopValues, ss.TopValues)
		}
		for i := range ms.TopValues {
			if ms.TopValues[i] != ss.TopValues[i] {
				t.Fatalf("column %s top values: %v vs %v", ms.Name, ms.TopValues, ss.TopValues)
			}
		}
	}
	// Describe runs over any Relation.
	assertRelationsEqual(t, Describe(mem), Describe(seg))
}

func TestOpenSegmentTableRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.seg")
	if err := os.WriteFile(path, []byte("definitely not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentTableWith(path, segment.NewPoolObs(1<<20, nil)); err == nil {
		t.Fatal("garbage file opened without error")
	}
	if _, err := OpenSegmentTableWith(filepath.Join(t.TempDir(), "absent.seg"), segment.NewPoolObs(1<<20, nil)); err == nil {
		t.Fatal("missing file opened without error")
	}
}

func TestBuildSegmentMaxInferRows(t *testing.T) {
	// With inference truncated, a later unparseable cell must error —
	// the same contract as ReadCSV.
	csvPath := filepath.Join(t.TempDir(), "trunc.csv")
	if err := os.WriteFile(csvPath, []byte("v\n1\n2\noops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(filepath.Dir(csvPath), "trunc.seg")
	opts := &SegmentBuildOptions{}
	opts.CSV.MaxInferRows = 2
	if _, err := BuildSegment(csvPath, segPath, opts); err == nil {
		t.Fatal("unparseable cell after truncated inference did not error")
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("failed build left the segment file behind: %v", err)
	}
}
