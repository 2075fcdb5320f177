package store

import "testing"

// benchScanPred is the filter the streaming-scan benchmarks share with
// the legacy Filter benchmarks above: a zone-mappable numeric leaf and
// a dictionary leaf.
func benchScanPred() Predicate {
	return And{NumCmp{Col: "x", Op: Gt, Val: 50}, StrEq{Col: "label", Val: "c"}}
}

// BenchmarkScanSequential streams the filtered scan over the benchmark
// segment page range by page range on one goroutine — the baseline the
// parallel merge must match byte for byte.
func BenchmarkScanSequential(b *testing.B) {
	st := benchSegment(b)
	p := benchScanPred()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(Scan(st, ScanSpec{Pred: p, Workers: 1}).Collect())
	}
}

// BenchmarkScanParallel4 runs the same scan with four page-range
// workers and the order-preserving merge. Read against GOMAXPROCS: on
// one core it can only tie the sequential path.
func BenchmarkScanParallel4(b *testing.B) {
	st := benchSegment(b)
	p := benchScanPred()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(Scan(st, ScanSpec{Pred: p, Workers: 4}).Collect())
	}
}

// BenchmarkScanLimit measures the limit pushdown: the scan stops at the
// first 100 matches instead of enumerating all of them.
func BenchmarkScanLimit(b *testing.B) {
	st := benchSegment(b)
	p := benchScanPred()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(Scan(st, ScanSpec{Pred: p, Limit: 100}).Collect())
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
		tab, err := ScanGather(st, rows, []string{"x"}, 1)
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
