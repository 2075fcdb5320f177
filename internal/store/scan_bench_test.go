package store

import "testing"

// benchScanPred is the filter the scan benchmarks share with
// BenchmarkSegmentFilter (the whole-relation scan): a zone-mappable
// numeric leaf and a dictionary leaf.
func benchScanPred() Predicate {
	return And{NumCmp{Col: "x", Op: Gt, Val: 50}, StrEq{Col: "label", Val: "c"}}
}

// BenchmarkScanLimit measures the limit pushdown: the scan stops at the
// first 100 matches instead of enumerating all of them.
func BenchmarkScanLimit(b *testing.B) {
	st := benchSegment(b)
	p := benchScanPred()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(FilterLimit(st, p, 100))
	}
}

// benchSampleRows is a sparse ascending row set shaped like a sampling
// gather (every 50th row of the 100k-row benchmark table).
func benchSampleRows(n int) []int {
	rows := make([]int, 0, n/50+1)
	for i := 0; i < n; i += 50 {
		rows = append(rows, i)
	}
	return rows
}

// BenchmarkScanGatherProjected is the projected sample gather: only
// the projected column is decoded, each of its pages read once.
func BenchmarkScanGatherProjected(b *testing.B) {
	st := benchSegment(b)
	rows := benchSampleRows(st.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := ScanGather(st, rows, []string{"x"}, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tab.NumRows()
	}
}

// BenchmarkGatherMaterialized is the baseline for the same row set:
// full-width Gather of every column.
func BenchmarkGatherMaterialized(b *testing.B) {
	st := benchSegment(b)
	rows := benchSampleRows(st.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = st.Gather(rows).NumRows()
	}
}

// benchFilterKernel is the filter click's store call: a one-comparison
// predicate over a zoomed selection (every other row), one result
// allocation.
func benchFilterKernel(b *testing.B, r Relation) {
	rows := make([]int, 0, r.NumRows()/2)
	for i := 0; i < r.NumRows(); i += 2 {
		rows = append(rows, i)
	}
	set, p := RowsOf(rows), NumCmp{Col: "x", Op: Ge, Val: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ScanRows(r, p, set).Len()
	}
}

func BenchmarkFilterKernelMem(b *testing.B) { benchFilterKernel(b, benchTable(100_000)) }
func BenchmarkFilterKernelSeg(b *testing.B) { benchFilterKernel(b, benchSegment(b)) }

// benchStatsRows is the highlight click's store call: the statistics
// of a float column over a region of 30 000 rows, read in place.
func benchStatsRows(b *testing.B, r Relation) {
	rows := make([]int, 0, 30_000)
	for i := 0; len(rows) < cap(rows); i += 3 {
		rows = append(rows, i)
	}
	set := RowsOf(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = StatsRows(r.ColumnByName("x"), set).Count
	}
}

func BenchmarkStatsRowsMem(b *testing.B) { benchStatsRows(b, benchTable(100_000)) }
func BenchmarkStatsRowsSeg(b *testing.B) { benchStatsRows(b, benchSegment(b)) }
