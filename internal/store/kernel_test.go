package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/store/segment"
)

// kernelTable is the fixture of the kernel differentials: one column of
// every kind, nulls in each, and in the float column the cells a
// comparison kernel can get wrong — NaN (not null), both zeros, both
// infinities. The strings include numbers, so a numeric comparison over
// the string column has rows to match.
func kernelTable(rng *rand.Rand, rows int) *Table {
	t := NewTable("kern")
	f, i, s, b := NewFloatColumn("f"), NewIntColumn("i"), NewStringColumn("s"), NewBoolColumn("b")
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.5}
	levels := []string{"u", "v", "1", "-2.5", "x"}
	for r := 0; r < rows; r++ {
		switch k := rng.Intn(10); {
		case k == 0:
			f.AppendNull()
		case k < 4:
			f.Append(special[rng.Intn(len(special))])
		default:
			f.Append(float64(rng.Intn(10)-5) + rng.Float64())
		}
		if rng.Intn(10) == 0 {
			i.AppendNull()
		} else {
			i.Append(int64(rng.Intn(12) - 6))
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
	for _, c := range []Column{f, i, s, b} {
		t.MustAddColumn(c)
	}
	return t
}

// segmentOf writes tab cell for cell into a segment of rpp rows per
// page (through the page writer, not a CSV, so NaN cells stay values)
// and opens it.
func segmentOf(t testing.TB, tab *Table, rpp int) *SegmentTable {
	t.Helper()
	kinds := map[Type]segment.Kind{Float64: segment.KindFloat64, Int64: segment.KindInt64, String: segment.KindString, Bool: segment.KindBool}
	schema := make([]segment.ColumnSpec, tab.NumCols())
	for ci := range schema {
		schema[ci] = segment.ColumnSpec{Name: tab.Column(ci).Name(), Kind: kinds[tab.Column(ci).Type()]}
	}
	path := filepath.Join(t.TempDir(), tab.Name()+".seg")
	w, err := segment.NewWriter(path, schema, &segment.WriterOptions{RowsPerPage: rpp})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tab.NumRows(); r++ {
		for ci := range schema {
			switch c := tab.Column(ci).(type) {
			case *FloatColumn:
				if c.IsNull(r) {
					w.AppendNull(ci)
				} else {
					w.AppendFloat(ci, c.vals[r])
				}
			case *IntColumn:
				if c.IsNull(r) {
					w.AppendNull(ci)
				} else {
					w.AppendInt(ci, c.vals[r])
				}
			case *StringColumn:
				if c.IsNull(r) {
					w.AppendNull(ci)
				} else {
					w.AppendString(ci, c.Value(r))
				}
			case *BoolColumn:
				if c.IsNull(r) {
					w.AppendNull(ci)
				} else {
					w.AppendBool(ci, c.vals.Get(r))
				}
			}
		}
		if err := w.EndRow(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenSegmentTableWith(path, segment.NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// kernelLeaves is every leaf shape over every column kind (and a
// missing column): each CmpOp against thresholds inside, at the edge of
// and outside the values, NaN among them; string equality both ways,
// set membership, null tests.
func kernelLeaves() []Predicate {
	var out []Predicate
	for _, col := range []string{"f", "i", "s", "b", "nope"} {
		for _, op := range []CmpOp{Lt, Le, Gt, Ge, Eq, Ne} {
			for _, val := range []float64{-2.5, 0, 0.5, 1, math.Inf(1), math.NaN()} {
				out = append(out, NumCmp{Col: col, Op: op, Val: val})
			}
		}
		for _, val := range []string{"u", "1", "true", "absent"} {
			out = append(out, StrEq{Col: col, Val: val}, StrEq{Col: col, Val: val, Neq: true})
		}
		out = append(out,
			StrIn{Col: col, Vals: []string{"v", "absent", "-2.5"}}, StrIn{Col: col, Vals: []string{"absent"}}, StrIn{Col: col},
			IsNull{Col: col}, IsNull{Col: col, Not: true})
	}
	return out
}

// kernelPredicate draws a predicate tree over kernelTable, nested at
// most depth deep.
func kernelPredicate(rng *rand.Rand, leaves []Predicate, depth int) Predicate {
	if depth == 0 || rng.Intn(3) == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	subs := make([]Predicate, rng.Intn(4))
	for j := range subs {
		subs[j] = kernelPredicate(rng, leaves, depth-1)
	}
	switch rng.Intn(4) {
	case 0:
		return And(subs)
	case 1:
		return Or(subs)
	case 2:
		return Not{P: kernelPredicate(rng, leaves, depth-1)}
	}
	return OrNull{P: kernelPredicate(rng, leaves, depth-1), Col: []string{"f", "i", "s", "b", "nope"}[rng.Intn(5)]}
}

// TestKernelScanMatchesReference is the scan kernels' differential:
// every leaf shape and random trees of them, on both backings, over
// every row-set shape and form, against Predicate.Matches row by row.
// FilterLimit must be a prefix of Filter, and a whole-relation segment
// scan must skip exactly the pages the zone maps exclude, once each.
func TestKernelScanMatchesReference(t *testing.T) {
	const n, rpp = 700, 64
	rng := rand.New(rand.NewSource(77))
	mem := kernelTable(rng, n)
	seg := segmentOf(t, mem, rpp)
	reg := obs.NewRegistry()
	seg.SetScanMetrics(NewScanMetrics(reg))
	scanned := reg.Counter("blaeu_scan_pages_total", "", obs.Labels{"result": "scanned"})
	skipped := reg.Counter("blaeu_scan_pages_total", "", obs.Labels{"result": "skipped"})
	np := seg.Segment().NumPages()

	rowSets := map[string][]int{
		"all":        nil,
		"subset":     SampleIndices(n, n/3, rng),
		"empty":      {},
		"one-page":   rangeRows(2*rpp, 3*rpp),
		"straddling": rangeRows(rpp-4, rpp+6),
		"sparse":     {3, 64, 190, 191, 400, 699},
	}
	leaves := kernelLeaves()
	preds := append([]Predicate{True{}, And{}, Or{}}, leaves...)
	for len(preds) < len(leaves)+300 {
		preds = append(preds, kernelPredicate(rng, leaves, 3))
	}
	for _, p := range preds {
		for name, rows := range rowSets {
			cand := rows
			if rows == nil {
				cand = rangeRows(0, n)
			}
			want := referenceFilter(mem, p, cand)
			for _, r := range []Relation{mem, seg} {
				s0, k0 := scanned.Value(), skipped.Value()
				var got []int
				if rows == nil {
					got = r.Filter(p)
				} else {
					got = ScanRows(r, p, RowsOf(rows)).AppendTo(nil)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s over %s rows of %T: %d rows %v, want %d rows %v", p, name, r, len(got), got, len(want), want)
				}
				if r == Relation(seg) && rows == nil {
					excluded, skips := 0, seg.pageSkips(p)
					for pi := 0; pi < np; pi++ {
						for _, skip := range skips {
							if skip(pi) {
								excluded++
								break
							}
						}
					}
					if ds, dk := scanned.Value()-s0, skipped.Value()-k0; int(dk) != excluded || int(ds+dk) != np {
						t.Fatalf("%s: %d pages scanned and %d skipped, want %d skipped of %d", p, ds, dk, excluded, np)
					}
				}
				if rows == nil {
					for _, limit := range []int{1, 10} {
						if got := FilterLimit(r, p, limit); !reflect.DeepEqual(got, want[:min(limit, len(want))]) {
							t.Fatalf("%s on %T: FilterLimit(%d) = %v, no prefix of %v", p, r, limit, got, want)
						}
					}
				}
			}
		}
	}
}

// referenceStats is ComputeStats as it was first written: row by row
// through the Column interface, distinct numbers in a map (so -0 is +0
// and every NaN is its own), strings counted by value.
func referenceStats(c Column) ColumnStats {
	s := ColumnStats{Name: c.Name(), Type: c.Type(), Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), Std: math.NaN()}
	if c.Type() == String {
		counts := map[string]int{}
		for i := 0; i < c.Len(); i++ {
			if !c.IsNull(i) {
				counts[c.StringAt(i)]++
				s.Count++
			}
		}
		dict, byCode := []string{}, []int{}
		for v, n := range counts {
			dict, byCode = append(dict, v), append(byCode, n)
		}
		s.Nulls = c.Len() - s.Count
		s.TopValues, s.Distinct = topK(dict, byCode, 10)
		return s
	}
	var sum, sumsq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	distinct := map[float64]struct{}{}
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			s.Nulls++
			continue
		}
		v := c.Float(i)
		s.Count++
		sum += v
		sumsq += v * v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v != v {
			s.Distinct++
		} else {
			distinct[v] = struct{}{}
		}
	}
	s.Distinct = min(s.Distinct+len(distinct), distinctCap)
	if s.Count > 0 {
		s.Min, s.Max, s.Mean = lo, hi, sum/float64(s.Count)
		s.Std = math.Sqrt(max(sumsq/float64(s.Count)-s.Mean*s.Mean, 0))
	}
	return s
}

// sameStats compares field for field, floats by their bits (any NaN is
// any other: which payload a sum of NaNs keeps is the compiler's
// choice of operand order).
func sameStats(a, b ColumnStats) bool {
	bits := func(s ColumnStats) (out [4]uint64) {
		for k, v := range [4]float64{s.Min, s.Max, s.Mean, s.Std} {
			if out[k] = math.Float64bits(v); v != v {
				out[k] = 0
			}
		}
		return out
	}
	return a.Name == b.Name && a.Type == b.Type && a.Count == b.Count && a.Nulls == b.Nulls && a.Distinct == b.Distinct &&
		bits(a) == bits(b) && reflect.DeepEqual(a.TopValues, b.TopValues)
}

// foreignCol is a Column implementation the kernels cannot bind.
type foreignCol struct{ Column }

// TestStatsRowsMatchGather: the statistics and the values read over a
// row set in place equal those of the gathered copy, on every column
// kind, both backings and a foreign column implementation, for row sets
// of every form.
func TestStatsRowsMatchGather(t *testing.T) {
	const n, rpp = 3000, 64
	rng := rand.New(rand.NewSource(78))
	mem := kernelTable(rng, n)
	seg := segmentOf(t, mem, rpp)
	rowSets := map[string][]int{
		"all": rangeRows(0, n), "subset": SampleIndices(n, n/2, rng), "sparse": SampleIndices(n, 20, rng), "empty": {},
		"one-page": rangeRows(rpp, 2*rpp), "straddling": rangeRows(rpp-4, rpp+6),
	}
	for ci := 0; ci < mem.NumCols(); ci++ {
		for _, c := range []Column{mem.Column(ci), seg.Column(ci), foreignCol{seg.Column(ci)}} {
			for name, rows := range rowSets {
				what := fmt.Sprintf("%s of %T, %s rows", c.Name(), c, name)
				sub := mem.Column(ci).Gather(rows)
				want := referenceStats(sub)
				if got := StatsRows(c, RowsOf(rows)); !sameStats(got, want) {
					t.Fatalf("%s: StatsRows = %+v, want %+v", what, got, want)
				}
				if got := ComputeStats(c.Gather(rows)); !sameStats(got, want) {
					t.Fatalf("%s: ComputeStats of the gather = %+v, want %+v", what, got, want)
				}
				vals, present := RowFloats(c, RowsOf(rows))
				for k := range rows {
					if (present[k] == 0) != sub.IsNull(k) || len(vals) != len(rows) {
						t.Fatalf("%s: RowFloats presence differs at %d", what, k)
					}
					if present[k] != 0 && c.Type() != String && math.Float64bits(vals[k]) != math.Float64bits(sub.Float(k)) {
						t.Fatalf("%s: RowFloats[%d] = %v, want %v", what, k, vals[k], sub.Float(k))
					}
				}
			}
		}
		if got, want := ComputeStats(seg.Column(ci)), referenceStats(mem.Column(ci)); !sameStats(got, want) {
			t.Fatalf("%s: ComputeStats over the segment = %+v, want %+v", want.Name, got, want)
		}
	}
}

// allocated returns the bytes fn allocates, after a first call has
// warmed the runtime's size classes.
func allocated(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestKernelByteBudgets: a highlight's statistics over n rows allocate
// the distinct-value table (sized for two values on a bool column) and
// fixed scratch — no 8-byte-per-row copy of the column — and a filter
// of n candidates with m matches allocates its result, one match byte
// per candidate (allocated page by page, so up to an eighth more in
// size-class rounding) and fixed scratch.
func TestKernelByteBudgets(t *testing.T) {
	const n = 400_000
	const slack = 64 << 10
	tab := benchTable(n)
	ids := SampleIndices(n, n/2, rand.New(rand.NewSource(4)))
	rows := RowsOf(ids)

	table := uint64(8 * (3*min(len(ids), distinctCap)/2 + 1))
	if got := allocated(func() { StatsRows(tab.ColumnByName("x"), rows) }); got > table+slack || table+slack >= uint64(8*len(ids)) {
		t.Errorf("StatsRows over %d rows allocated %d bytes, budget %d (a copy is %d)", len(ids), got, table+slack, 8*len(ids))
	}
	// A bool column has two values to tell apart: its table is 4 slots.
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = i%3 == 0
	}
	flag := NewBoolColumnFrom("flag", flags)
	if got := allocated(func() { StatsRows(flag, rows) }); got > slack {
		t.Errorf("StatsRows of a bool column over %d rows allocated %d bytes, budget %d", len(ids), got, slack)
	}

	p := benchScanPred()
	m := ScanRows(tab, p, rows).Len()
	if got, budget := allocated(func() { ScanRows(tab, p, rows) }), uint64(8*m+len(ids)*9/8+slack); got > budget {
		t.Errorf("ScanRows of %d candidates, %d matches allocated %d bytes, budget %d", len(ids), m, got, budget)
	}
	m = len(tab.Filter(p))
	if got, budget := allocated(func() { tab.Filter(p) }), uint64(8*m+n*9/8+2*slack); got > budget {
		t.Errorf("Filter of %d rows, %d matches allocated %d bytes, budget %d", n, m, got, budget)
	}
}

// TestKernelsOnPagesLongerThanARun: a segment whose pages hold more rows
// than a run cuts every page into several runs; the scan, the router
// and the statistics must not notice.
func TestKernelsOnPagesLongerThanARun(t *testing.T) {
	const n, rpp = 21_000, routeRun + 1808
	rng := rand.New(rand.NewSource(80))
	mem := kernelTable(rng, n)
	seg := segmentOf(t, mem, rpp)
	rows := SampleIndices(n, n/2, rng)
	set := RowsOf(rows)
	leaves := kernelLeaves()
	for trial := 0; trial < 40; trial++ {
		p := kernelPredicate(rng, leaves, 3)
		if got, want := seg.Filter(p), referenceFilter(mem, p, rangeRows(0, n)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scan selects %d rows, want %d", p, len(got), len(want))
		}
		if got, want := ScanRows(seg, p, set).AppendTo(nil), referenceFilter(mem, p, rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: row-set scan selects %d rows, want %d", p, len(got), len(want))
		}
		tree := SplitTree{{Split: p, No: 2}, {}, {}}
		want := referenceRoute(mem, tree, rows)
		assertRouted(t, p.String()+", table", Route(mem, tree, set), want)
		assertRouted(t, p.String()+", segment", Route(seg, tree, set), want)
	}
	for ci := 0; ci < mem.NumCols(); ci++ {
		if got, want := StatsRows(seg.Column(ci), set), referenceStats(mem.Column(ci).Gather(rows)); !sameStats(got, want) {
			t.Fatalf("StatsRows = %+v, want %+v", got, want)
		}
	}
}

// TestNeKeepsFloatPagesWithNaN: page stats do not see NaN cells, so a
// float page whose other cells all equal v reads min == max == v — and
// x <> v must still scan it, because a NaN differs from v. The int
// column of the same shape has no NaN and keeps its skip.
func TestNeKeepsFloatPagesWithNaN(t *testing.T) {
	const rpp = 8
	mem := NewTable("nan")
	f, i := NewFloatColumn("f"), NewIntColumn("i")
	for r := 0; r < 3*rpp; r++ {
		switch {
		case r == rpp+3 || r == 2*rpp:
			f.Append(math.NaN()) // a value, not a null: Append keeps the cell
		case r == rpp+5:
			f.AppendNull()
		default:
			f.Append(7)
		}
		i.Append(7)
	}
	mem.MustAddColumn(f)
	mem.MustAddColumn(i)
	seg := segmentOf(t, mem, rpp)
	reg := obs.NewRegistry()
	seg.SetScanMetrics(NewScanMetrics(reg))
	skipped := reg.Counter("blaeu_scan_pages_total", "", obs.Labels{"result": "skipped"})

	all := rangeRows(0, mem.NumRows())
	for _, p := range []Predicate{
		NumCmp{Col: "f", Op: Ne, Val: 7},
		And{NumCmp{Col: "f", Op: Ne, Val: 7}, IsNull{Col: "f", Not: true}},
		NumCmp{Col: "f", Op: Eq, Val: 7},
		NumCmp{Col: "i", Op: Ne, Val: 7},
	} {
		want := referenceFilter(mem, p, all)
		for _, r := range []Relation{mem, seg} {
			if got := r.Filter(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %T: Filter = %v, Predicate.Matches gives %v", p, r, got, want)
			}
			if got := ScanRows(r, p, RowsOf(all[1:])).AppendTo(nil); !reflect.DeepEqual(got, referenceFilter(mem, p, all[1:])) {
				t.Fatalf("%s on %T: ScanRows = %v", p, r, got)
			}
		}
	}
	if want := []int{rpp + 3, 2 * rpp}; !reflect.DeepEqual(seg.Filter(NumCmp{Col: "f", Op: Ne, Val: 7}), want) {
		t.Fatalf("f <> 7 must select exactly the NaN cells %v", want)
	}
	k0 := skipped.Value()
	seg.Filter(NumCmp{Col: "i", Op: Ne, Val: 7})
	if got := skipped.Value() - k0; got != 3 {
		t.Fatalf("i <> 7 skipped %d of 3 constant int pages", got)
	}
}
