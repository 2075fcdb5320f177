package store

import (
	"fmt"
	"testing"
)

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

// benchBackings runs fn over the benchmark table in memory and over
// its segment, as the sub-benchmarks mem and seg.
func benchBackings(b *testing.B, fn func(b *testing.B, r Relation)) {
	b.Run("mem", func(b *testing.B) { fn(b, benchTable(100_000)) })
	b.Run("seg", func(b *testing.B) { fn(b, benchSegment(b)) })
}

// BenchmarkScanGatherProjected is the projected sample gather: only
// the projected column is decoded, each of its pages read once.
func BenchmarkScanGatherProjected(b *testing.B) {
	benchBackings(b, func(b *testing.B, r Relation) {
		rows := benchSampleRows(r.NumRows())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab, err := ScanGather(r, rows, []string{"x"}, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = tab.NumRows()
		}
	})
}

// BenchmarkGatherMaterialized is the baseline for the same row set:
// full-width Gather of every column.
func BenchmarkGatherMaterialized(b *testing.B) {
	benchBackings(b, func(b *testing.B, r Relation) {
		rows := benchSampleRows(r.NumRows())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = r.Gather(rows).NumRows()
		}
	})
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
// of a float column over a region of 30 000 rows, read in place — x,
// full precision, whose distinct values go in a table in one pass; x4,
// 4 decimals, whose go in a bitmap over their range in a second; and
// w4, 4 decimals over a range too wide for the bitmap, whose go in the
// table in a second pass on a segment and, in memory, in an eighth of
// it over eight.
func benchStatsRows(b *testing.B, r Relation) {
	rows := make([]int, 0, 30_000)
	for i := 0; len(rows) < cap(rows); i += 3 {
		rows = append(rows, i)
	}
	set := RowsOf(rows)
	for _, col := range []string{"x", "x4", "w4"} {
		b.Run(col, func(b *testing.B) {
			c := r.ColumnByName(col)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = StatsRows(c, set).Count
			}
		})
	}
}

func BenchmarkStatsRowsMem(b *testing.B) { benchStatsRows(b, benchTable(100_000)) }
func BenchmarkStatsRowsSeg(b *testing.B) { benchStatsRows(b, benchSegment(b)) }

// BenchmarkCompileStrEq is a StrEq compiled over a column of 100 000
// distinct values, for the last value in the dictionary. first is the
// column's first string predicate, which builds the value -> code map
// the column keeps; later is every compile after it.
func BenchmarkCompileStrEq(b *testing.B) {
	const n = 100_000
	c := NewStringColumn("id")
	for i := 0; i < n; i++ {
		c.Append(fmt.Sprintf("src%06d", i))
	}
	t := NewTable("ids")
	t.MustAddColumn(c)
	p := StrEq{Col: "id", Val: fmt.Sprintf("src%06d", n-1)}
	for _, run := range []string{"first", "later"} {
		b.Run(run, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if run == "first" {
					c.lookup.drop()
				}
				ev := evaluator{runCap: routeRun}
				benchSink = int(ev.compile(t, p).val)
			}
		})
	}
}

// BenchmarkIsLikelyKeyInt is key detection over an integer key column of
// 100 000 sequential values: a full scan of the prefix, every value new.
func BenchmarkIsLikelyKeyInt(b *testing.B) {
	ids := make([]int64, 100_000)
	for i := range ids {
		ids[i] = int64(i)
	}
	c := NewIntColumnFrom("id", ids)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !IsLikelyKey(c) {
			b.Fatal("a sequential column is a key")
		}
	}
}
