package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// fingerprintOf is the fingerprint of the set of ids as RowsOf builds
// it: what every other construction of the same rows must hash to.
func fingerprintOf(ids []int) uint64 { return RowsOf(slices.Clone(ids)).Fingerprint() }

// formOf names the form a set took.
func formOf(s *RowSet) string {
	switch {
	case s.ids != nil:
		return "list"
	case s.words != nil:
		return "bitmap"
	}
	return "range"
}

// smallestForm names the form that stores ascending ids in the fewest
// bytes: a range costs none, a bitmap 8 bytes per 64 rows of span, a
// list 8 bytes a row (the list on a tie).
func smallestForm(ids []int) string {
	if len(ids) == 0 {
		return "range"
	}
	span := ids[len(ids)-1] - ids[0] + 1
	switch {
	case span == len(ids):
		return "range"
	case (span+63)/64 < len(ids):
		return "bitmap"
	}
	return "list"
}

// rowSetShapes are the id lists the RowSet tests cover, over n rows at
// rpp rows per page: every form, and the edges of pages and words.
func rowSetShapes(rng *rand.Rand, n, rpp int) map[string][]int {
	dense := SampleIndices(n, n*3/4, rng)
	return map[string][]int{
		"empty":      {},
		"full":       rangeRows(0, n),
		"single-row": {n / 2},
		"page-edge":  rangeRows(rpp-1, 2*rpp+1),
		"word-edge":  {63, 64, 127, 128, 130, 191, 192},
		"sparse":     SampleIndices(n, n/100, rng),
		"dense":      dense,
		"dense-tail": dense[len(dense)/2:],
		"last-row":   {n - 1},
	}
}

// assertRowSet holds s against its reference ids: form, size, rows,
// positions, intersection, the kernels' runs, and a fingerprint equal to
// RowsOf's set of the same ids.
func assertRowSet(t *testing.T, what string, s *RowSet, ids []int, rng *rand.Rand) {
	t.Helper()
	if f, want := formOf(s), smallestForm(ids); f != want {
		t.Fatalf("%s: a %s, want a %s", what, f, want)
	}
	if s.Len() != len(ids) {
		t.Fatalf("%s: Len %d, want %d", what, s.Len(), len(ids))
	}
	if got := s.AppendTo([]int{-7}); !reflect.DeepEqual(got, append([]int{-7}, ids...)) {
		t.Fatalf("%s: AppendTo = %v, want %v", what, got, ids)
	}
	var each []int
	s.Each(func(r int) { each = append(each, r) })
	if !equalInts(each, ids) {
		t.Fatalf("%s: Each = %v, want %v", what, each, ids)
	}
	if len(ids) > 0 {
		pos := SampleIndices(len(ids), 1+rng.Intn(len(ids)), rng)
		want := make([]int, len(pos))
		for k, p := range pos {
			want[k] = ids[p]
		}
		if got := s.Pick(append([]int(nil), pos...)); !equalInts(got, want) {
			t.Fatalf("%s: Pick(%v) = %v, want %v", what, pos, got, want)
		}
	}
	if got, want := s.Fingerprint(), fingerprintOf(ids); got != want {
		t.Fatalf("%s: Fingerprint %x, want %x", what, got, want)
	}
	for _, limit := range []int{1, 5, 64, 1000} {
		for _, rpp := range []int{0, 7, 64} {
			assertRuns(t, fmt.Sprintf("%s, runs(%d, %d)", what, limit, rpp), s, ids, limit, rpp)
		}
	}
}

// assertRuns: the runs of s cover ids in order, each at its position,
// at most limit long and on one page of rpp rows.
func assertRuns(t *testing.T, what string, s *RowSet, ids []int, limit, rpp int) {
	t.Helper()
	var got []int
	s.runs(limit, rpp, func(off, page int, run []int) bool {
		if off != len(got) || len(run) == 0 || len(run) > limit {
			t.Fatalf("%s: a run of %d rows at %d after %d rows", what, len(run), off, len(got))
		}
		if rpp > 0 && (run[0]/rpp != page || run[len(run)-1]/rpp != page) {
			t.Fatalf("%s: run %v is not on page %d", what, run, page)
		}
		got = append(got, run...)
		return true
	})
	if !equalInts(got, ids) {
		t.Fatalf("%s: runs cover %v, want %v", what, got, ids)
	}
}

// TestRowSetMatchesReference is RowSet's property test: every shape,
// built by RowsOf and by the two producers that build sets (a routing
// node, the scan) over both backings, is in its smallest form, reads as
// its reference list through every method and the kernels' runs, and
// fingerprints as RowsOf's set of its rows does — so a region and a
// filter selecting the same rows share a cache key.
func TestRowSetMatchesReference(t *testing.T) {
	const n = 2000
	mem, seg := openBoth(t, n, 1<<20)
	rng := rand.New(rand.NewSource(26))
	for name, ids := range rowSetShapes(rng, n, 64) {
		assertRowSet(t, name+", RowsOf", RowsOf(append([]int(nil), ids...)), ids, rng)
		for _, r := range []Relation{mem, seg} {
			p := NumCmp{Col: "x", Op: Lt, Val: 3}
			rt := Route(r, SplitTree{{Split: p, No: 2}, {}, {}}, RowsOf(ids))
			want := referenceRoute(mem, SplitTree{{Split: p, No: 2}, {}, {}}, ids)
			for i := 1; i < 3; i++ {
				assertRowSet(t, fmt.Sprintf("%s, node %d over %T", name, i, r), rt.Rows(i), want[i], rng)
			}
			assertRowSet(t, fmt.Sprintf("%s, scan over %T", name, r), ScanRows(r, p, RowsOf(ids)), want[1], rng)
			if got := StatsRows(r.ColumnByName("x"), RowsOf(ids)); !sameStats(got, referenceStats(mem.ColumnByName("x").Gather(ids))) {
				t.Fatalf("%s over %T: StatsRows = %+v", name, r, got)
			}
		}
	}
	if s := All(n); formOf(s) != "range" || s.Len() != n || s.Fingerprint() != fingerprintOf(rangeRows(0, n)) {
		t.Fatalf("All(%d) is a %s of %d rows", n, formOf(s), s.Len())
	}
}

// FuzzRowSet holds random ascending ids against the []int reference,
// and holds the identity law: the scan's set of the same ids (a routing
// node's, built from (n, span) as RowsOf's is) fingerprints equal, and
// dropping an id or adding one past the last changes the fingerprint.
func FuzzRowSet(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1}, uint16(0))
	f.Add([]byte{63, 1, 64, 200, 1}, uint16(5))
	f.Add([]byte{255, 255, 0, 3}, uint16(9000))
	f.Fuzz(func(t *testing.T, gaps []byte, start uint16) {
		ids := make([]int, 0, len(gaps))
		r := int(start)
		for _, g := range gaps {
			ids = append(ids, r)
			r += 1 + int(g)%67
		}
		assertRowSet(t, fmt.Sprintf("%v", ids), RowsOf(append([]int(nil), ids...)), ids, rand.New(rand.NewSource(int64(len(ids)))))

		want := fingerprintOf(ids)
		tab := NewTable("fuzz")
		tab.MustAddColumn(NewIntColumnFrom("x", make([]int64, r)))
		if got := ScanRows(tab, True{}, RowsOf(slices.Clone(ids))).Fingerprint(); got != want {
			t.Fatalf("%v: the scan's set fingerprints %x, RowsOf's %x", ids, got, want)
		}
		if len(ids) > 0 {
			if k := len(ids) / 2; fingerprintOf(slices.Delete(slices.Clone(ids), k, k+1)) == want {
				t.Fatalf("%v: dropping row %d keeps the fingerprint", ids, ids[k])
			}
		}
		if fingerprintOf(append(slices.Clone(ids), r)) == want {
			t.Fatalf("%v: adding row %d keeps the fingerprint", ids, r)
		}
	})
}

// TestRowSetConcurrent: goroutines take a shared set's Fingerprint at
// once, and read its runs at once. Run under -race by `make race-scan`.
func TestRowSetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for name, ids := range rowSetShapes(rng, 5000, 64) {
		s, want := RowsOf(append([]int(nil), ids...)), fingerprintOf(ids)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if got := s.Fingerprint(); got != want {
					t.Errorf("%s, goroutine %d: Fingerprint %x, want %x", name, g, got, want)
				}
				var got []int
				s.runs(1+g*100, 64, func(_, _ int, run []int) bool {
					got = append(got, run...)
					return true
				})
				if !equalInts(got, ids) {
					t.Errorf("%s, goroutine %d: runs differ from the rows", name, g)
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkRowSetRuns reads 100 000 rows of span through the kernels'
// primitive in each form — every row (a range), every third (a bitmap),
// every hundredth (a list) — in runs of a scan's page.
func BenchmarkRowSetRuns(b *testing.B) {
	const n = 100_000
	for _, step := range []int{1, 3, 100} {
		var ids []int
		for r := 0; r < n; r += step {
			ids = append(ids, r)
		}
		s := RowsOf(ids)
		b.Run(formOf(s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := 0
				s.runs(routeRun, defaultScanPageRows, func(_, _ int, run []int) bool {
					sum += run[len(run)-1]
					return true
				})
				benchSink = sum
			}
		})
	}
}

// BenchmarkRowSetFingerprint names a 1.6M-row selection in each form —
// every row (a range), every third (a bitmap), every hundredth (a list).
// Each iteration hashes a fresh header over the same storage, so no
// value kept from an earlier call is what gets timed.
func BenchmarkRowSetFingerprint(b *testing.B) {
	const n = 1_600_000
	for _, step := range []int{1, 3, 100} {
		s := All(n)
		if step > 1 {
			var ids []int
			for r := 0; r < n; r += step {
				ids = append(ids, r)
			}
			s = RowsOf(ids)
		}
		b.Run(formOf(s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := &RowSet{lo: s.lo, hi: s.hi, n: s.n, words: s.words, ids: s.ids}
				benchSink = int(h.Fingerprint())
			}
		})
	}
}
