package store

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/store/segment"
)

// randomTable builds a table with numeric, string and bool columns,
// nulls sprinkled in each, for property testing the compiled matchers.
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

// randomPredicate generates a random predicate tree over randomTable's
// schema, depth-bounded.
func randomPredicate(rng *rand.Rand, depth int) Predicate {
	cols := []string{"f", "i", "s", "b", "nope"}
	col := cols[rng.Intn(len(cols))]
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(4) {
		case 0:
			n := rng.Intn(3)
			and := make(And, n)
			for j := range and {
				and[j] = randomPredicate(rng, depth-1)
			}
			return and
		case 1:
			n := rng.Intn(3)
			or := make(Or, n)
			for j := range or {
				or[j] = randomPredicate(rng, depth-1)
			}
			return or
		case 2:
			return Not{P: randomPredicate(rng, depth-1)}
		default:
			return OrNull{P: randomPredicate(rng, depth-1), Col: col}
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []CmpOp{Lt, Le, Gt, Ge, Eq, Ne}
		return NumCmp{Col: col, Op: ops[rng.Intn(len(ops))], Val: float64(rng.Intn(10) - 5)}
	case 1:
		vals := []string{"u", "v", "w", "x", "absent"}
		return StrEq{Col: col, Val: vals[rng.Intn(len(vals))], Neq: rng.Intn(2) == 0}
	case 2:
		vals := []string{"u", "v", "w", "x", "absent"}
		k := rng.Intn(3)
		in := StrIn{Col: col, Vals: make([]string, k)}
		for j := range in.Vals {
			in.Vals[j] = vals[rng.Intn(len(vals))]
		}
		return in
	case 3:
		return IsNull{Col: col, Not: rng.Intn(2) == 0}
	default:
		return True{}
	}
}

// TestCompileMatcherEquivalence is the vectorized-path property test:
// for random tables and random predicate trees, the compiled matcher
// must agree with the reference Predicate.Matches on every row.
func TestCompileMatcherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		tab := randomTable(rng, 50)
		p := randomPredicate(rng, 3)
		m := CompileMatcher(tab, p)
		for i := 0; i < tab.NumRows(); i++ {
			if got, want := m(i), p.Matches(tab, i); got != want {
				t.Fatalf("trial %d row %d: compiled=%v reference=%v for %s", trial, i, got, want, p)
			}
		}
	}
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
// on zero-column tables: Head, Gather, Where, Clone and Slice-based
// paths must all preserve numRows when no columns exist to carry it.
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
	if got := tab.Where(True{}).NumRows(); got != 10 {
		t.Errorf("Where(True) on zero-column table: %d rows, want 10", got)
	}
	if got := tab.Where(IsNull{Col: "ghost"}).NumRows(); got != 0 {
		t.Errorf("Where(impossible) on zero-column table: %d rows, want 0", got)
	}
}

// benchTable builds a single-allocation numeric+string table for the
// filter benchmarks.
func benchTable(n int) *Table {
	rng := rand.New(rand.NewSource(11))
	t := NewTable("bench")
	f := NewFloatColumn("x")
	s := NewStringColumn("label")
	levels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		f.Append(rng.Float64() * 100)
		s.Append(levels[rng.Intn(len(levels))])
	}
	t.MustAddColumn(f)
	t.MustAddColumn(s)
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

// BenchmarkFilterCompiled is the resolve-once vectorized path used by
// Table.Filter.
func BenchmarkFilterCompiled(b *testing.B) {
	tab := benchTable(100_000)
	p := And{NumCmp{Col: "x", Op: Gt, Val: 50}, StrEq{Col: "label", Val: "c"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := CompileMatcher(tab, p)
		n := 0
		for r := 0; r < tab.NumRows(); r++ {
			if m(r) {
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
