package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scanTestPred matches roughly half the rows through a conjunction
// with both a zone-mappable numeric leaf and a dictionary leaf.
func scanTestPred() Predicate {
	return And{
		NumCmp{Col: "x", Op: Gt, Val: -5},
		StrEq{Col: "label", Val: "beta", Neq: true},
	}
}

// referenceFilter is the row-set filter under the reference semantics:
// the interpretive Predicate.Matches, row by row, in input order.
func referenceFilter(r Relation, p Predicate, rows []int) []int {
	var out []int
	for _, i := range rows {
		if p.Matches(r, i) {
			out = append(out, i)
		}
	}
	return out
}

func TestScanMatchesFilter(t *testing.T) {
	mem, seg := openBoth(t, 500, 1<<20)
	for _, r := range []Relation{mem, seg} {
		want := referenceFilter(r, scanTestPred(), rangeRows(0, r.NumRows()))
		if got := r.Filter(scanTestPred()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: scan returned %d rows, want %d (first diff near %v)", r, len(got), len(want), got[:min(5, len(got))])
		}
		// Predicate-free scan enumerates every row.
		if all := r.Filter(nil); !reflect.DeepEqual(all, rangeRows(0, r.NumRows())) {
			t.Fatalf("%T: full scan wrong", r)
		}
	}
}

func TestScanRowSetPushdown(t *testing.T) {
	mem, seg := openBoth(t, 500, 1<<20)
	// A sparse ascending row set spanning page gaps (rpp=64 on the
	// segment): pages with no candidates must not affect output.
	var rows []int
	for i := 3; i < 500; i += 17 {
		rows = append(rows, i)
	}
	for _, r := range []Relation{mem, seg} {
		want := referenceFilter(r, scanTestPred(), rows)
		if got := ScanRows(r, scanTestPred(), RowsOf(rows)).AppendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: ScanRows mismatch: %d vs %d rows", r, len(got), len(want))
		}
	}
}

func TestScanLimit(t *testing.T) {
	mem, seg := openBoth(t, 500, 1<<20)
	for _, r := range []Relation{mem, seg} {
		full := r.Filter(scanTestPred())
		for _, limit := range []int{1, 7, 64, len(full), len(full) + 10} {
			want := full
			if limit < len(full) {
				want = full[:limit]
			}
			if got := FilterLimit(r, scanTestPred(), limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("%T FilterLimit(%d): got %d rows, want %d", r, limit, len(got), len(want))
			}
		}
	}
}

// TestScanGatherProjection pins ScanGather(cols) ==
// Gather(rows).Project(cols) on both backings.
func TestScanGatherProjection(t *testing.T) {
	mem, seg := openBoth(t, 500, 1<<20)
	var rows []int
	for i := 1; i < 500; i += 7 {
		rows = append(rows, i)
	}
	cols := []string{"x", "label"}
	for _, r := range []Relation{mem, seg} {
		want, err := r.Gather(rows).Project(cols...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ScanGather(r, rows, cols, 0)
		if err != nil {
			t.Fatalf("%T: %v", r, err)
		}
		assertRelationsEqual(t, want, got)
		// Empty row set materializes empty columns of the right shape.
		empty, err := ScanGather(r, nil, cols, 0)
		if err != nil {
			t.Fatal(err)
		}
		if empty.NumRows() != 0 || empty.NumCols() != len(cols) {
			t.Fatalf("%T: empty ScanGather got %d×%d", r, empty.NumRows(), empty.NumCols())
		}
	}
}

// TestScanSpecErrors: a row set is strictly ascending and non-negative
// by construction — RowsOf refuses anything else, so no scan meets it —
// and a gather of a missing column is an error.
func TestScanSpecErrors(t *testing.T) {
	for _, ids := range [][]int{{5, 3}, {3, 3}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowsOf(%v) accepted a list that is not strictly ascending and non-negative", ids)
				}
			}()
			RowsOf(ids)
		}()
	}
	mem, seg := openBoth(t, 200, 1<<20)
	for _, r := range []Relation{mem, seg} {
		if _, err := ScanGather(r, []int{0}, []string{"nope"}, 0); err == nil {
			t.Fatalf("%T: ScanGather unknown column not rejected", r)
		}
	}
}

func TestScanMetricsCounters(t *testing.T) {
	_, seg := openBoth(t, 500, 1<<20)
	reg := obs.NewRegistry()
	seg.SetScanMetrics(NewScanMetrics(reg))
	scanned := reg.Counter("blaeu_scan_pages_total", "", obs.Labels{"result": "scanned"})
	skipped := reg.Counter("blaeu_scan_pages_total", "", obs.Labels{"result": "skipped"})
	batches := reg.Counter("blaeu_scan_batches_total", "", nil)
	np := seg.Segment().NumPages()

	// A predicate no zone map can satisfy skips every page.
	seg.Filter(NumCmp{Col: "x", Op: Gt, Val: 1e12})
	if got := skipped.Value(); got != uint64(np) {
		t.Fatalf("impossible predicate: skipped %d pages, want %d", got, np)
	}
	if got := scanned.Value(); got != 0 {
		t.Fatalf("impossible predicate scanned %d pages", got)
	}

	// A full scan visits every page and every page yields matches.
	s0, b0 := scanned.Value(), batches.Value()
	seg.Filter(True{})
	if got := scanned.Value() - s0; got != uint64(np) {
		t.Fatalf("full scan visited %d pages, want %d", got, np)
	}
	if got := batches.Value() - b0; got != uint64(np) {
		t.Fatalf("full scan counted %d pages with matches, want %d", got, np)
	}

	// A two-row row set touches exactly its two pages; the rest skip.
	s0, k0 := scanned.Value(), skipped.Value()
	ScanRows(seg, True{}, RowsOf([]int{0, seg.NumRows() - 1}))
	if got := scanned.Value() - s0; got != 2 {
		t.Fatalf("row-set scan visited %d pages, want 2", got)
	}
	if got := skipped.Value() - k0; got != uint64(np-2) {
		t.Fatalf("row-set scan skipped %d pages, want %d", got, np-2)
	}
}

// TestScanConcurrent hammers one shared segment table with concurrent
// scans — whole-relation, row-set and limited — and projected gathers:
// the -race target (make race-scan). Every scan compiles its own
// evaluator and page cursors; what the goroutines share is the pool the
// pages flow through, sized here to hold a fraction of them, so its
// single-flight loads and evictions run under the scans. Every result
// must equal the in-memory baseline.
func TestScanConcurrent(t *testing.T) {
	mem, seg := openBoth(t, 800, 8<<10)
	seg.SetScanMetrics(NewScanMetrics(obs.NewRegistry()))
	pred := scanTestPred()
	wantRows := mem.Filter(pred)
	var sample []int
	for i := 5; i < 800; i += 11 {
		sample = append(sample, i)
	}
	wantSubset := ScanRows(mem, pred, RowsOf(sample)).AppendTo(nil)
	wantSample, err := mem.Gather(sample).Project("x", "count", "label")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8) // one send per goroutine at most
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				if got := seg.Filter(pred); !reflect.DeepEqual(got, wantRows) {
					errs <- fmt.Errorf("goroutine %d: filter diverged", g)
					return
				}
				if got := ScanRows(seg, pred, RowsOf(sample)).AppendTo(nil); !reflect.DeepEqual(got, wantSubset) {
					errs <- fmt.Errorf("goroutine %d: row-set scan diverged", g)
					return
				}
				if got := FilterLimit(seg, pred, 3+g); !reflect.DeepEqual(got, wantRows[:3+g]) {
					errs <- fmt.Errorf("goroutine %d: limited scan diverged", g)
					return
				}
				got, err := ScanGather(seg, sample, []string{"x", "count", "label"}, 0)
				if err != nil {
					errs <- err
					return
				}
				if got.NumRows() != wantSample.NumRows() {
					errs <- fmt.Errorf("goroutine %d: gather %d rows, want %d", g, got.NumRows(), wantSample.NumRows())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
