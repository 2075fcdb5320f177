package store

import "testing"

// benchRouteTree is a three-split description tree over the benchmark
// table: two numeric thresholds and a dictionary equality.
func benchRouteTree() SplitTree {
	return SplitTree{
		{Split: NumCmp{Col: "x", Op: Lt, Val: 50}, No: 4},
		{Split: NumCmp{Col: "x", Op: Lt, Val: 20}, No: 2},
		{}, {},
		{Split: StrEq{Col: "label", Val: "c"}, No: 2},
		{}, {},
	}
}

func benchRoute(b *testing.B, r Relation) {
	rows := All(r.NumRows())
	t := benchRouteTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Route(r, t, rows).Rows(2).Len()
	}
}

// BenchmarkRouteRowsTable and BenchmarkRouteRowsSegment route the whole
// benchmark table through a two-level tree on each backing and read one
// region's rows: the region stage's row-proportional work, plus the
// first inspection of a region.
func BenchmarkRouteRowsTable(b *testing.B)   { benchRoute(b, benchTable(100_000)) }
func BenchmarkRouteRowsSegment(b *testing.B) { benchRoute(b, benchSegment(b)) }

// BenchmarkPartitionRows is the one-split case, as the click
// benchmark's layer probe calls it.
func BenchmarkPartitionRows(b *testing.B) {
	st := benchSegment(b)
	rows := rangeRows(0, st.NumRows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, _ := PartitionRows(st, NumCmp{Col: "x", Op: Lt, Val: 50}, rows)
		benchSink = len(yes)
	}
}
