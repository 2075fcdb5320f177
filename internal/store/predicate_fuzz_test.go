package store

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzParsePredicate drives the filter expression the HTTP edge accepts
// end to end: the parser must return a predicate or an error, never
// panic, and an accepted predicate scanned by the batch kernels — both
// backings, whole relation and a row set — must select exactly the rows
// Predicate.Matches does.
func FuzzParsePredicate(f *testing.F) {
	for _, expr := range []string{
		"f >= 0.5 AND s = 'u'", "NOT (i < 0) OR b = 1", "s IN ('u', 'v', '1')", "f IS NULL OR i IS NOT NULL",
		"s <> 'x' AND (f <= -1 OR f > 3)", "nope = 3", "s < 2", "i = '4'", "b != 0 AND b = true", "\"f\" <> 0",
		"f = 1e309", "NOT NOT NOT s != 'u'", "(", "f >", "s IN ()", "",
	} {
		f.Add(expr)
	}
	rng := rand.New(rand.NewSource(79))
	mem := kernelTable(rng, 300)
	seg := segmentOf(f, mem, 64)
	rows := SampleIndices(mem.NumRows(), 100, rng)
	all := rangeRows(0, mem.NumRows())
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 1<<10 {
			t.Skip("bounding parse cost")
		}
		p, err := ParsePredicate(expr)
		if err != nil {
			return
		}
		wantAll, wantRows := referenceFilter(mem, p, all), referenceFilter(mem, p, rows)
		for _, r := range []Relation{mem, seg} {
			if got := r.Filter(p); !reflect.DeepEqual(got, wantAll) {
				t.Fatalf("%q (%s) on %T: Filter = %v, want %v", expr, p, r, got, wantAll)
			}
			if got := ScanRows(r, p, RowsOf(rows)).AppendTo(nil); !reflect.DeepEqual(got, wantRows) {
				t.Fatalf("%q (%s) on %T: ScanRows = %v, want %v", expr, p, r, got, wantRows)
			}
		}
	})
}
