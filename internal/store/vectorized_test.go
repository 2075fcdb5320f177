package store

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/store/segment"
)

// randomTable builds a table with numeric, string and bool columns,
// nulls sprinkled in each.
func randomTable(rng *rand.Rand, rows int) *Table {
	t := NewTable("rand")
	f := NewFloatColumn("f")
	i := NewIntColumn("i")
	s := NewStringColumn("s")
	b := NewBoolColumn("b")
	levels := []string{"u", "v", "w", "x"}
	for r := 0; r < rows; r++ {
		if rng.Intn(10) == 0 {
			f.AppendNull()
		} else {
			f.Append(rng.NormFloat64() * 4)
		}
		if rng.Intn(10) == 0 {
			i.AppendNull()
		} else {
			i.Append(int64(rng.Intn(20) - 10))
		}
		if rng.Intn(10) == 0 {
			s.AppendNull()
		} else {
			s.Append(levels[rng.Intn(len(levels))])
		}
		if rng.Intn(10) == 0 {
			b.AppendNull()
		} else {
			b.Append(rng.Intn(2) == 0)
		}
	}
	t.MustAddColumn(f)
	t.MustAddColumn(i)
	t.MustAddColumn(s)
	t.MustAddColumn(b)
	return t
}

func TestScanRowsAndPartitionRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng, 200)
	rows := SampleIndices(tab.NumRows(), 80, rng)
	p := Or{NumCmp{Col: "f", Op: Gt, Val: 0}, IsNull{Col: "s"}}
	var wantYes, wantNo []int
	for _, r := range rows {
		if p.Matches(tab, r) {
			wantYes = append(wantYes, r)
		} else {
			wantNo = append(wantNo, r)
		}
	}
	if got := ScanRows(tab, p, RowsOf(rows)).AppendTo(nil); !equalInts(got, wantYes) {
		t.Fatalf("ScanRows = %v, want %v", got, wantYes)
	}
	yes, no := PartitionRows(tab, p, rows)
	if !equalInts(yes, wantYes) || !equalInts(no, wantNo) {
		t.Fatalf("PartitionRows = (%v, %v), want (%v, %v)", yes, no, wantYes, wantNo)
	}
}

// TestZeroColumnRowCounts is the regression suite for row-count loss
// on zero-column tables: Head, Gather, Gather(Filter), Clone and
// Slice-based paths must all preserve numRows when no columns exist to
// carry it.
func TestZeroColumnRowCounts(t *testing.T) {
	tab := NewTable("empty")
	tab.numRows = 10

	if got := tab.Head(4).NumRows(); got != 4 {
		t.Errorf("Head(4) on zero-column table: %d rows, want 4", got)
	}
	if got := tab.Head(99).NumRows(); got != 10 {
		t.Errorf("Head(99) on zero-column table: %d rows, want 10", got)
	}
	if got := tab.Head(-1).NumRows(); got != 0 {
		t.Errorf("Head(-1) on zero-column table: %d rows, want 0", got)
	}
	if got := tab.Gather([]int{1, 3, 5}).NumRows(); got != 3 {
		t.Errorf("Gather on zero-column table: %d rows, want 3", got)
	}
	if got := tab.Gather(tab.Filter(True{})).NumRows(); got != 10 {
		t.Errorf("Gather(Filter(True)) on zero-column table: %d rows, want 10", got)
	}
	if got := tab.Gather(tab.Filter(IsNull{Col: "ghost"})).NumRows(); got != 0 {
		t.Errorf("Gather(Filter(impossible)) on zero-column table: %d rows, want 0", got)
	}
}

// benchTable builds a single-allocation numeric+string table for the
// filter benchmarks: x is a full-precision float in [0, 100), x4 the
// same value at 4 decimals (as the ledger's CSV writes it), and w4 a
// thousand times it at 4 decimals, a range too wide for a bitmap.
func benchTable(n int) *Table {
	rng := rand.New(rand.NewSource(11))
	t := NewTable("bench")
	f, f4, w4 := NewFloatColumn("x"), NewFloatColumn("x4"), NewFloatColumn("w4")
	s := NewStringColumn("label")
	levels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		f.Append(x)
		f4.Append(math.Round(x*1e4) / 1e4)
		w4.Append(math.Round(x*1e7) / 1e4)
		s.Append(levels[rng.Intn(len(levels))])
	}
	t.MustAddColumn(f)
	t.MustAddColumn(s)
	t.MustAddColumn(f4)
	t.MustAddColumn(w4)
	return t
}

var benchSink int

// BenchmarkFilterNaive is the old per-row path: Predicate.Matches
// resolves the column by name on every row.
func BenchmarkFilterNaive(b *testing.B) {
	tab := benchTable(100_000)
	p := And{NumCmp{Col: "x", Op: Gt, Val: 50}, StrEq{Col: "label", Val: "c"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for r := 0; r < tab.NumRows(); r++ {
			if p.Matches(tab, r) {
				n++
			}
		}
		benchSink = n
	}
}

// benchSegment converts benchTable to a segment once per process.
func benchSegment(b *testing.B) *SegmentTable {
	b.Helper()
	dir := b.TempDir()
	tab := benchTable(100_000)
	csvPath := dir + "/bench.csv"
	cf, err := os.Create(csvPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteCSV(cf, tab); err != nil {
		b.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		b.Fatal(err)
	}
	segPath := dir + "/bench.seg"
	if _, err := BuildSegment(csvPath, segPath, nil); err != nil {
		b.Fatal(err)
	}
	st, err := OpenSegmentTableWith(segPath, segment.NewPoolObs(64<<20, nil))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkSegmentFilter runs the same filter over the segment-backed
// relation: page-at-a-time scan with zone-map skipping.
func BenchmarkSegmentFilter(b *testing.B) {
	st := benchSegment(b)
	p := And{NumCmp{Col: "x", Op: Gt, Val: 50}, StrEq{Col: "label", Val: "c"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(st.Filter(p))
	}
}

// BenchmarkSegmentFilterSkipAll measures the zone-map fast path: a
// predicate no page can satisfy touches only footer metadata.
func BenchmarkSegmentFilterSkipAll(b *testing.B) {
	st := benchSegment(b)
	p := NumCmp{Col: "x", Op: Gt, Val: 1e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(st.Filter(p))
	}
}
