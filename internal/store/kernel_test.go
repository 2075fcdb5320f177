package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/store/segment"
)

// kernelTable is the fixture of the kernel differentials: one column of
// every kind, nulls in each, and in the float column the cells a
// comparison kernel can get wrong — NaN (not null), both zeros, both
// infinities. The strings include numbers, so a numeric comparison over
// the string column has rows to match. d is a float column of 2-decimal
// values beside NaN and -0, whose distinct values the statistics count
// in a bitmap; it draws nothing from rng, so the other columns are what
// they were before it.
func kernelTable(rng *rand.Rand, rows int) *Table {
	t := NewTable("kern")
	f, i, s, b, d := NewFloatColumn("f"), NewIntColumn("i"), NewStringColumn("s"), NewBoolColumn("b"), NewFloatColumn("d")
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
		switch {
		case r%11 == 0:
			d.AppendNull()
		case r%17 == 0:
			d.Append(math.Copysign(0, -1))
		case r%19 == 0:
			d.Append(math.NaN())
		default:
			d.Append(float64(r*7919%4001-2000) / 100)
		}
	}
	for _, c := range []Column{f, i, s, b, d} {
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

// referencePageSkips states the zone-map rules apart from the compiled
// predicate that applies them: one page-exclusion test per top-level
// conjunct of p, true on a page where the conjunct matches no row.
// Numeric comparisons over int, bool and float columns are bounded by
// the page's min and max (except <> over a float column, whose stats do
// not see NaN cells), string equality through the value's dictionary
// code, IS [NOT] NULL by the page's null count; all-null pages fail
// every comparison. Other shapes give no test.
func referencePageSkips(t *SegmentTable, p Predicate) []func(pi int) bool {
	var out []func(int) bool
	numSkip := func(pages []segment.PageInfo, op CmpOp, val float64) func(int) bool {
		return func(pi int) bool {
			pg := &pages[pi]
			switch {
			case pg.NullCount == pg.Rows:
				return true
			case op == Lt:
				return pg.Min >= val
			case op == Le:
				return pg.Min > val
			case op == Gt:
				return pg.Max <= val
			case op == Ge:
				return pg.Max < val
			case op == Eq:
				return val < pg.Min || val > pg.Max
			case op == Ne:
				return pg.Min == val && pg.Max == val
			}
			return false
		}
	}
	switch p := p.(type) {
	case And:
		for _, q := range p {
			out = append(out, referencePageSkips(t, q)...)
		}
	case NumCmp:
		if c, ok := t.ColumnByName(p.Col).(*segCol); ok && c.typ != String && !(p.Op == Ne && c.typ == Float64) {
			out = append(out, numSkip(c.meta.Pages, p.Op, p.Val))
		}
	case StrEq:
		if c, ok := t.ColumnByName(p.Col).(*segCol); ok && c.typ == String {
			pages := c.meta.Pages
			code := slices.Index(c.dict, p.Val)
			present := code >= 0
			switch {
			case present && p.Neq:
				out = append(out, numSkip(pages, Ne, float64(code)))
			case present:
				out = append(out, numSkip(pages, Eq, float64(code)))
			case p.Neq:
				out = append(out, func(pi int) bool { return pages[pi].NullCount == pages[pi].Rows })
			default:
				out = append(out, func(int) bool { return true })
			}
		}
	case IsNull:
		if c, ok := t.ColumnByName(p.Col).(*segCol); ok {
			pages := c.meta.Pages
			if p.Not {
				out = append(out, func(pi int) bool { return pages[pi].NullCount == pages[pi].Rows })
			} else {
				out = append(out, func(pi int) bool { return pages[pi].NullCount == 0 })
			}
		}
	}
	return out
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
					excluded, skips := 0, referencePageSkips(seg, p)
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
		s.TopValues, s.Distinct = topK(dict, byCode, MaxTopValues)
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
// the distinct-value table, or for decimals (a bool column among them)
// a bitmap over their keys, and fixed scratch — no 8-byte-per-row copy
// of the column — and a filter
// of n candidates with m matches allocates its result, one match byte
// per candidate (allocated page by page, so up to an eighth more in
// size-class rounding) and fixed scratch.
func TestKernelByteBudgets(t *testing.T) {
	const n = 400_000
	const slack = 64 << 10
	tab := benchTable(n)
	ids := SampleIndices(n, n/2, rand.New(rand.NewSource(4)))
	rows := RowsOf(ids)

	table := uint64(8 * (min(len(ids), distinctCap)*5/4 + 1))
	if got := allocated(func() { StatsRows(tab.ColumnByName("x"), rows) }); got > table+slack || table+slack >= uint64(8*len(ids)) {
		t.Errorf("StatsRows over %d rows allocated %d bytes, budget %d (a copy is %d)", len(ids), got, table+slack, 8*len(ids))
	}
	// A bool column's values are the keys 0 and 1: its bitmap is a word.
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = i%3 == 0
	}
	flag := NewBoolColumnFrom("flag", flags)
	if got := allocated(func() { StatsRows(flag, rows) }); got > slack {
		t.Errorf("StatsRows of a bool column over %d rows allocated %d bytes, budget %d", len(ids), got, slack)
	}
	// A 4-decimal column's distinct values take a bit per key of the
	// region's range R, ⌈R/64⌉ words, not the table.
	x4 := tab.ColumnByName("x4")
	s4 := StatsRows(x4, rows)
	keys := uint64(math.Round(s4.Max*1e4)-math.Round(s4.Min*1e4)) + 1
	if got, budget := allocated(func() { StatsRows(x4, rows) }), 8*((keys+63)/64)+slack; got > budget {
		t.Errorf("StatsRows of a 4-decimal column over %d rows (%d keys) allocated %d bytes, budget %d (the table is %d)", len(ids), keys, got, budget, table)
	}

	// Key detection over an int column of three levels stops after
	// ~1 000 rows, before its set outgrows the early-exit window.
	levels := make([]int64, 100_000)
	for i := range levels {
		levels[i] = int64(i % 3)
	}
	lv := NewIntColumnFrom("levels", levels)
	if got := allocated(func() { IsLikelyKey(lv) }); got > slack {
		t.Errorf("IsLikelyKey of a 3-level int column of %d rows allocated %d bytes, budget %d", len(levels), got, slack)
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

// TestKernelStringLeavesOverIngest: string equality, its negation and
// set membership find their codes in a map the first compile builds
// from the dictionary, so they are held to the reference over string
// columns ingest built, which hold no such map until then — a
// ReadCSV table and the segment BuildSegment writes from the same file
// — with nulls (a whole page of them in s), a repeated-level column and
// a near-unique one, for values present and absent.
func TestKernelStringLeavesOverIngest(t *testing.T) {
	const n, rpp = 600, 64
	rng := rand.New(rand.NewSource(79))
	var b strings.Builder
	b.WriteString("s,key\n")
	levels := []string{"u", "v", "w", "1", "x y"}
	for r := 0; r < n; r++ {
		if r/rpp != 2 && rng.Intn(8) != 0 {
			b.WriteString(levels[rng.Intn(len(levels))])
		}
		b.WriteByte(',')
		if rng.Intn(10) != 0 {
			fmt.Fprintf(&b, "k%d", rng.Intn(n))
		}
		b.WriteByte('\n')
	}
	dir := t.TempDir()
	csvPath, segPath := filepath.Join(dir, "str.csv"), filepath.Join(dir, "str.seg")
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := ReadCSVFile(csvPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSegment(csvPath, segPath, &SegmentBuildOptions{RowsPerPage: rpp}); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentTableWith(segPath, segment.NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	for _, col := range []string{"s", "key"} {
		if mem.ColumnByName(col).Type() != String || mem.ColumnByName(col).NullCount() == 0 {
			t.Fatalf("column %s is not a string column with nulls", col)
		}
	}

	var preds []Predicate
	for _, col := range []string{"s", "key"} {
		for _, val := range []string{"u", "x y", "k3", "k599", "", "absent"} {
			preds = append(preds, StrEq{Col: col, Val: val}, StrEq{Col: col, Val: val, Neq: true})
		}
		preds = append(preds,
			StrIn{Col: col, Vals: []string{"v", "absent", "1", "k7"}}, StrIn{Col: col, Vals: []string{"absent"}},
			StrIn{Col: col, Vals: []string{"w", "w"}}, StrIn{Col: col})
	}
	subset := SampleIndices(n, n/3, rng)
	for _, p := range preds {
		for _, rows := range [][]int{rangeRows(0, n), subset} {
			want := referenceFilter(mem, p, rows)
			for _, r := range []Relation{mem, seg} {
				if ref := referenceFilter(r, p, rows); !reflect.DeepEqual(ref, want) {
					t.Fatalf("%s: the reference differs between the backings", p)
				}
				if got := ScanRows(r, p, RowsOf(rows)).AppendTo(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s over %d rows of %T: %v, want %v", p, len(rows), r, got, want)
				}
			}
		}
		for _, r := range []Relation{mem, seg} {
			if got, want := r.Filter(p), referenceFilter(mem, p, rangeRows(0, n)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Filter of %T = %v, want %v", p, r, got, want)
			}
		}
	}
}

// TestStringLookupFollowsAppend: the string predicates' value -> code
// map is built by the first compile over a column and kept, and a value
// an Append adds to the dictionary afterwards is found by the next.
func TestStringLookupFollowsAppend(t *testing.T) {
	c := NewStringColumnFrom("s", []string{"a", "b", "a"})
	tab := func() *Table {
		t := NewTable("t")
		t.MustAddColumn(c)
		return t
	}
	first := tab()
	if c.lookup.m.Load() != nil {
		t.Fatal("a column no predicate was compiled over holds a lookup")
	}
	if got := first.Filter(StrEq{Col: "s", Val: "b"}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("s = 'b' matched %v", got)
	}
	if c.lookup.m.Load() == nil {
		t.Fatal("a compiled string equality left no lookup")
	}
	c.Append("z")
	c.Append("b")
	grown := tab()
	for _, tc := range []struct {
		p    Predicate
		want []int
	}{
		{StrEq{Col: "s", Val: "z"}, []int{3}},
		{StrEq{Col: "s", Val: "z", Neq: true}, []int{0, 1, 2, 4}},
		{StrIn{Col: "s", Vals: []string{"b", "z"}}, []int{1, 3, 4}},
	} {
		if got := grown.Filter(tc.p); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("after the Appends, %s matched %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestConcurrentStringLookups: the first string predicates compiled
// over a column, on both backings, build its lookup from several
// goroutines at once and match what the reference does (run under
// -race by make race-store).
func TestConcurrentStringLookups(t *testing.T) {
	const n = 500
	mem, seg := openBoth(t, n, 1<<20)
	preds := []Predicate{
		StrEq{Col: "label", Val: "gamma"}, StrEq{Col: "label", Val: "beta", Neq: true},
		StrIn{Col: "label", Vals: []string{"alpha", "absent", "delta"}}, StrEq{Col: "label", Val: "absent"},
	}
	for _, r := range []Relation{mem, seg} {
		var wg sync.WaitGroup
		got := make([][]int, 4*len(preds))
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = r.Filter(preds[i%len(preds)])
			}()
		}
		wg.Wait()
		for i, g := range got {
			p := preds[i%len(preds)]
			if want := referenceFilter(mem, p, rangeRows(0, n)); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s over %T matched %v, want %v", p, r, g, want)
			}
		}
	}
}
