package store

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/store/segment"
)

func TestBitmapSetGetClear(t *testing.T) {
	b := NewBitmap(130)
	if b.Count() != 0 {
		t.Fatalf("fresh bitmap count = %d, want 0", b.Count())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if got := b.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unset bits read as set")
	}
}

func TestBitmapGrowOnSet(t *testing.T) {
	b := NewBitmap(0)
	b.Set(200)
	if b.Len() != 201 {
		t.Fatalf("len = %d, want 201", b.Len())
	}
	if !b.Get(200) {
		t.Fatal("bit 200 not set")
	}
}

func TestBitmapResizeClearsTail(t *testing.T) {
	b := NewBitmap(10)
	for i := 0; i < 10; i++ {
		b.Set(i)
	}
	b.Resize(4)
	if got := b.Count(); got != 4 {
		t.Fatalf("count after shrink = %d, want 4", got)
	}
	b.Resize(10)
	if got := b.Count(); got != 4 {
		t.Fatalf("count after regrow = %d, want 4 (tail must stay clear)", got)
	}
}

func TestBitmapNilSafe(t *testing.T) {
	var b *Bitmap
	if b.Get(3) || b.Any() || b.Count() != 0 {
		t.Error("nil bitmap should behave as empty")
	}
}

func TestBitmapCountProperty(t *testing.T) {
	f := func(idx []uint16) bool {
		b := NewBitmap(0)
		set := make(map[int]bool)
		for _, i := range idx {
			b.Set(int(i))
			set[int(i)] = true
		}
		return b.Count() == len(set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatColumnBasics(t *testing.T) {
	c := NewFloatColumn("x")
	c.Append(1.5)
	c.AppendNull()
	c.Append(-2)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.NullCount() != 1 || !c.IsNull(1) {
		t.Error("null bookkeeping wrong")
	}
	if !math.IsNaN(c.Float(1)) {
		t.Error("null Float should be NaN")
	}
	if c.Float(0) != 1.5 || c.Float(2) != -2 {
		t.Error("values wrong")
	}
	if c.StringAt(1) != "" || c.StringAt(0) != "1.5" {
		t.Errorf("StringAt = %q, %q", c.StringAt(1), c.StringAt(0))
	}
}

func TestFloatColumnFromNaN(t *testing.T) {
	c := NewFloatColumnFrom("x", []float64{1, math.NaN(), 3})
	if c.NullCount() != 1 || !c.IsNull(1) {
		t.Error("NaN should become null")
	}
}

func TestIntColumnBasics(t *testing.T) {
	c := NewIntColumnFrom("n", []int64{10, 20, 30})
	c.AppendNull()
	if c.Len() != 4 || c.NullCount() != 1 {
		t.Fatal("len/null wrong")
	}
	if c.Float(1) != 20 {
		t.Error("Float coercion wrong")
	}
	if c.StringAt(2) != "30" {
		t.Error("StringAt wrong")
	}
	if !math.IsNaN(c.Float(3)) {
		t.Error("null Float should be NaN")
	}
}

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumnFrom("s", []string{"a", "b", "a", "c", "b", "a"})
	if c.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3", c.Cardinality())
	}
	if c.Value(0) != "a" || c.Value(3) != "c" {
		t.Error("values wrong")
	}
	if c.Code(0) != c.Code(2) {
		t.Error("equal strings must share codes")
	}
	c.AppendNull()
	if c.Code(6) != -1 {
		t.Error("null code should be -1")
	}
}

func TestStringColumnFloatParse(t *testing.T) {
	c := NewStringColumnFrom("s", []string{"3.5", "x"})
	if c.Float(0) != 3.5 {
		t.Error("parseable string should coerce")
	}
	if !math.IsNaN(c.Float(1)) {
		t.Error("unparseable string should be NaN")
	}
}

func TestBoolColumn(t *testing.T) {
	c := NewBoolColumnFrom("b", []bool{true, false, true})
	c.AppendNull()
	if c.Len() != 4 || c.NullCount() != 1 {
		t.Fatal("len/null wrong")
	}
	if c.Float(0) != 1 || c.Float(1) != 0 {
		t.Error("Float coercion wrong")
	}
	if c.StringAt(0) != "true" || c.StringAt(3) != "" {
		t.Error("StringAt wrong")
	}
}

func TestColumnGatherSlice(t *testing.T) {
	cols := []Column{
		NewFloatColumnFrom("f", []float64{0, 1, 2, 3, 4}),
		NewIntColumnFrom("i", []int64{0, 1, 2, 3, 4}),
		NewStringColumnFrom("s", []string{"0", "1", "2", "3", "4"}),
		NewBoolColumnFrom("b", []bool{false, true, false, true, false}),
	}
	for _, c := range cols {
		g := c.Gather([]int{4, 0, 2})
		if g.Len() != 3 {
			t.Fatalf("%s gather len = %d", c.Name(), g.Len())
		}
		if g.StringAt(0) != c.StringAt(4) || g.StringAt(2) != c.StringAt(2) {
			t.Errorf("%s gather order wrong", c.Name())
		}
		sl := c.Gather(rangeRows(1, 4))
		if sl.Len() != 3 || sl.StringAt(0) != c.StringAt(1) {
			t.Errorf("%s range gather wrong", c.Name())
		}
	}
}

func TestGatherPreservesNulls(t *testing.T) {
	c := NewFloatColumn("f")
	c.Append(1)
	c.AppendNull()
	c.Append(3)
	g := c.Gather([]int{1, 2})
	if !g.IsNull(0) || g.IsNull(1) {
		t.Error("nulls not preserved through gather")
	}
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("countries")
	tab.MustAddColumn(NewStringColumnFrom("name", []string{"NL", "CH", "NO", "CA", "US", "FR"}))
	tab.MustAddColumn(NewFloatColumnFrom("income", []float64{28, 35, 33, 30, 32, 27}))
	tab.MustAddColumn(NewFloatColumnFrom("hours", []float64{8, 7, 6, 9, 22, 21}))
	tab.MustAddColumn(NewIntColumnFrom("rank", []int64{1, 2, 3, 4, 5, 6}))
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := newTestTable(t)
	if tab.NumRows() != 6 || tab.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	if tab.ColumnByName("income") == nil || tab.ColumnByName("zzz") != nil {
		t.Error("ColumnByName wrong")
	}
	if tab.ColumnIndex("hours") != 2 || tab.ColumnIndex("zzz") != -1 {
		t.Error("ColumnIndex wrong")
	}
	s := tab.Schema()
	if len(s) != 4 || s[1].Type != Float64 {
		t.Errorf("schema = %v", s)
	}
	if !strings.Contains(s.String(), "income DOUBLE") {
		t.Errorf("schema string = %q", s.String())
	}
}

func TestTableAddColumnErrors(t *testing.T) {
	tab := newTestTable(t)
	if err := tab.AddColumn(NewFloatColumnFrom("income", []float64{1, 2, 3, 4, 5, 6})); err == nil {
		t.Error("duplicate column should fail")
	}
	if err := tab.AddColumn(NewFloatColumnFrom("short", []float64{1})); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestTableProjectDrop(t *testing.T) {
	tab := newTestTable(t)
	p, err := tab.Project("hours", "income")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.ColumnNames()[0] != "hours" {
		t.Error("projection wrong")
	}
	if _, err := tab.Project("nope"); err == nil {
		t.Error("missing column should fail")
	}
}

func TestTableFilterWhere(t *testing.T) {
	tab := newTestTable(t)
	rows := tab.Filter(NumCmp{Col: "hours", Op: Ge, Val: 20})
	if len(rows) != 2 {
		t.Fatalf("filter rows = %v", rows)
	}
	w := tab.Gather(tab.Filter(And{
		NumCmp{Col: "hours", Op: Lt, Val: 20},
		NumCmp{Col: "income", Op: Ge, Val: 30},
	}))
	if w.NumRows() != 3 {
		t.Fatalf("where rows = %d, want 3 (CH, NO, CA)", w.NumRows())
	}
	names := w.ColumnByName("name").(*StringColumn)
	got := map[string]bool{}
	for i := 0; i < w.NumRows(); i++ {
		got[names.Value(i)] = true
	}
	for _, want := range []string{"CH", "NO", "CA"} {
		if !got[want] {
			t.Errorf("missing %s in filtered result", want)
		}
	}
}

func TestTableGatherHead(t *testing.T) {
	tab := newTestTable(t)
	g := tab.Gather([]int{5, 0})
	if g.NumRows() != 2 || g.Row(0)[0] != "FR" {
		t.Error("gather wrong")
	}
	h := tab.Head(2)
	if h.NumRows() != 2 || h.Row(1)[0] != "CH" {
		t.Error("head wrong")
	}
	if tab.Head(100).NumRows() != 6 {
		t.Error("head overflow wrong")
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleIndices(100, 10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	last := -1
	for _, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		if v <= last {
			t.Fatalf("not sorted: %v", s)
		}
		seen[v] = true
		last = v
	}
	all := SampleIndices(5, 10, rng)
	if len(all) != 5 {
		t.Errorf("oversample should return all rows, got %d", len(all))
	}
}

func TestSampleIndicesUniformity(t *testing.T) {
	// Every index should be picked roughly equally often.
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 20)
	const trials = 2000
	for i := 0; i < trials; i++ {
		for _, v := range SampleIndices(20, 5, rng) {
			counts[v]++
		}
	}
	want := float64(trials) * 5 / 20 // 500
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.2 {
			t.Errorf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleIndicesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n, k uint8) bool {
		s := SampleIndices(int(n), int(k), rng)
		wantLen := int(k)
		if int(n) < wantLen {
			wantLen = int(n)
		}
		if len(s) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceSampleIndices is SampleIndices' specification: Floyd's
// algorithm with the taken set in a map, sorted at the end.
func referenceSampleIndices(n, k int, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		v := rng.Intn(j + 1)
		if chosen[v] {
			v = j
		}
		chosen[v] = true
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TestSampleIndicesMatchesReference: over random (n, k, seed) — k
// from 0 past n, so both the bitmap and the sorted-insertion taken set
// and the whole-range case are drawn — SampleIndices returns the
// reference's rows, and leaves the source where the reference does.
func TestSampleIndicesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(1 << uint(rng.Intn(15)))
		k := 0
		switch trial % 4 {
		case 0:
			k = rng.Intn(n + 3)
		case 1:
			k = rng.Intn(n/64 + 2)
		case 2:
			k = max(0, n-rng.Intn(3))
		}
		seed := rng.Int63()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := SampleIndices(n, k, gotRng), referenceSampleIndices(n, k, wantRng)
		what := fmt.Sprintf("n=%d k=%d seed=%d", n, k, seed)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: SampleIndices = %v, want %v", what, got, want)
		}
		if len(got) != min(k, n) {
			t.Fatalf("%s: %d rows", what, len(got))
		}
		if gotRng.Int63() != wantRng.Int63() {
			t.Fatalf("%s: the source advanced differently from the reference", what)
		}
	}
}

// TestSampleIndicesBytes: a draw allocates less than the reference's
// map did, whichever taken set it keeps — the result itself, sorted, or
// a bitmap over [0, n).
func TestSampleIndicesBytes(t *testing.T) {
	allocated := func(f func(int, int, *rand.Rand) []int, n, k int) uint64 {
		rng := rand.New(rand.NewSource(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			f(n, k, rng)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	for _, c := range []struct{ n, k int }{{100_000, 1100}, {1_600_000, 300}, {1_600_000, 5000}, {1100, 256}, {5000, 2000}} {
		got, ref := allocated(SampleIndices, c.n, c.k), allocated(referenceSampleIndices, c.n, c.k)
		if got >= ref {
			t.Errorf("SampleIndices(%d, %d) allocated %d bytes, the reference %d", c.n, c.k, got, ref)
		}
	}
}

func TestPredicates(t *testing.T) {
	tab := newTestTable(t)
	cases := []struct {
		p    Predicate
		want int
	}{
		{NumCmp{Col: "hours", Op: Lt, Val: 9}, 3},
		{NumCmp{Col: "hours", Op: Le, Val: 9}, 4},
		{NumCmp{Col: "hours", Op: Gt, Val: 21}, 1},
		{NumCmp{Col: "hours", Op: Ge, Val: 21}, 2},
		{NumCmp{Col: "rank", Op: Eq, Val: 3}, 1},
		{NumCmp{Col: "rank", Op: Ne, Val: 3}, 5},
		{StrEq{Col: "name", Val: "CA"}, 1},
		{StrEq{Col: "name", Val: "CA", Neq: true}, 5},
		{StrIn{Col: "name", Vals: []string{"NL", "FR", "XX"}}, 2},
		{Not{StrEq{Col: "name", Val: "CA"}}, 5},
		{True{}, 6},
		{And{}, 6},
		{Or{}, 0},
		{Or{StrEq{Col: "name", Val: "CA"}, StrEq{Col: "name", Val: "US"}}, 2},
		{IsNull{Col: "income"}, 0},
		{IsNull{Col: "income", Not: true}, 6},
	}
	for _, tc := range cases {
		if got := len(tab.Filter(tc.p)); got != tc.want {
			t.Errorf("%s matched %d rows, want %d", tc.p, got, tc.want)
		}
	}
}

func TestPredicateNullsNeverMatch(t *testing.T) {
	tab := NewTable("t")
	c := NewFloatColumn("x")
	c.Append(1)
	c.AppendNull()
	tab.MustAddColumn(c)
	if n := len(tab.Filter(NumCmp{Col: "x", Op: Ne, Val: 99})); n != 1 {
		t.Errorf("null row matched a comparison; got %d rows", n)
	}
}

func TestPredicateStrings(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{NumCmp{Col: "hours", Op: Ge, Val: 20}, "hours >= 20"},
		{StrEq{Col: "name", Val: "CA"}, "name = 'CA'"},
		{NumCmp{Col: "% long hours", Op: Lt, Val: 9.5}, `"% long hours" < 9.5`},
		{And{NumCmp{Col: "a", Op: Lt, Val: 1}, NumCmp{Col: "b", Op: Ge, Val: 2}}, "a < 1 AND b >= 2"},
		{Or{StrEq{Col: "s", Val: "x"}}, "(s = 'x')"},
		{StrIn{Col: "s", Vals: []string{"a", "b"}}, "s IN ('a', 'b')"},
		{IsNull{Col: "x"}, "x IS NULL"},
		{Not{True{}}, "NOT (TRUE)"},
		{And{}, "TRUE"},
		{Or{}, "FALSE"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestCmpOpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{Lt: Ge, Le: Gt, Gt: Le, Ge: Lt, Eq: Ne, Ne: Eq}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Errorf("%s negated = %s, want %s", op, op.Negate(), want)
		}
	}
}

func TestReadCSVInference(t *testing.T) {
	csvData := `id,score,count,flag,label
1,1.5,10,true,aa
2,2.5,20,false,bb
3,,30,true,cc
`
	tab, err := ReadCSV(strings.NewReader(csvData), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 || tab.NumCols() != 5 {
		t.Fatalf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	wantTypes := map[string]Type{"id": Int64, "score": Float64, "count": Int64, "flag": Bool, "label": String}
	for name, want := range wantTypes {
		if got := tab.ColumnByName(name).Type(); got != want {
			t.Errorf("column %s type = %s, want %s", name, got, want)
		}
	}
	if !tab.ColumnByName("score").IsNull(2) {
		t.Error("empty cell should be null")
	}
}

func TestReadCSVNullTokens(t *testing.T) {
	csvData := "x\n1\nNA\n3\n"
	tab, err := ReadCSV(strings.NewReader(csvData), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ColumnByName("x").NullCount() != 1 {
		t.Error("NA should be null")
	}
	if tab.ColumnByName("x").Type() != Int64 {
		t.Error("column with NA should still infer Int64")
	}
}

func TestReadCSVCustomDelimiter(t *testing.T) {
	data := "a;b\n1;x\n2;y\n"
	tab, err := ReadCSV(strings.NewReader(data), &CSVOptions{Comma: ';', TableName: "semi"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "semi" || tab.NumRows() != 2 || tab.NumCols() != 2 {
		t.Fatalf("dims = %dx%d name=%s", tab.NumRows(), tab.NumCols(), tab.Name())
	}
	if tab.ColumnByName("a").Type() != Int64 {
		t.Error("type inference through custom delimiter broken")
	}
}

func TestReadCSVBlankHeaderNames(t *testing.T) {
	data := ",x\n1,2\n"
	tab, err := ReadCSV(strings.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ColumnByName("col0") == nil {
		t.Errorf("blank header should become col0; have %v", tab.ColumnNames())
	}
}

func TestReadCSVMaxInferRows(t *testing.T) {
	// Type inference limited to the first row sees "1" → Int64; the later
	// non-numeric cell must then fail loudly rather than corrupt data.
	data := "x\n1\nabc\n"
	if _, err := ReadCSV(strings.NewReader(data), &CSVOptions{MaxInferRows: 1}); err == nil {
		t.Error("conflicting cell after inference window should error")
	}
	// Without the limit the column falls back to VARCHAR.
	tab, err := ReadCSV(strings.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ColumnByName("x").Type() != String {
		t.Error("full inference should pick VARCHAR")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := newTestTable(t)
	var sb strings.Builder
	if err := WriteCSV(&sb, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
		t.Fatalf("round trip dims = %dx%d", back.NumRows(), back.NumCols())
	}
	for i := 0; i < tab.NumRows(); i++ {
		a, b := tab.Row(i), back.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("row %d col %d: %q != %q", i, j, a[j], b[j])
			}
		}
	}
}

func TestStatsNumeric(t *testing.T) {
	tab := newTestTable(t)
	s := Stats(tab, "income")
	if s.Count != 6 || s.Nulls != 0 {
		t.Fatalf("count=%d nulls=%d", s.Count, s.Nulls)
	}
	if s.Min != 27 || s.Max != 35 {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	wantMean := (28.0 + 35 + 33 + 30 + 32 + 27) / 6
	if math.Abs(s.Mean-wantMean) > 1e-9 {
		t.Errorf("mean = %g, want %g", s.Mean, wantMean)
	}
	if s.Std <= 0 {
		t.Errorf("std = %g", s.Std)
	}
}

func TestStatsCategorical(t *testing.T) {
	c := NewStringColumnFrom("s", []string{"a", "a", "a", "b", "b", "c"})
	s := ComputeStats(c)
	if s.Distinct != 3 || s.Count != 6 {
		t.Fatalf("distinct=%d count=%d", s.Distinct, s.Count)
	}
	if len(s.TopValues) != 3 || s.TopValues[0].Value != "a" || s.TopValues[0].Count != 3 {
		t.Errorf("top values = %v", s.TopValues)
	}
}

// distinctViaMap is ComputeStats' distinct count as it was first written:
// a map[float64]struct{} grown from empty, closed to new values once it
// holds 100001. The reference the table-based count is held to.
func distinctViaMap(c Column) int {
	distinct := make(map[float64]struct{})
	for i := 0; i < c.Len(); i++ {
		if !c.IsNull(i) && len(distinct) <= 100000 {
			distinct[c.Float(i)] = struct{}{}
		}
	}
	return len(distinct)
}

func TestStatsDistinctMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)

	repeats := NewFloatColumn("repeats")
	for i := 0; i < 5000; i++ {
		switch {
		case i%11 == 0:
			repeats.AppendNull()
		case i%7 == 0:
			repeats.Append(float64(rng.Intn(40)) / 8)
		default:
			repeats.Append(rng.NormFloat64())
		}
	}
	// A non-null NaN is a value, and as a map key every NaN is its own.
	special := NewFloatColumn("special")
	for _, v := range []float64{0, negZero, math.NaN(), 1, math.NaN(), negZero, math.Inf(1), math.Inf(-1), 1, math.NaN()} {
		special.Append(v)
	}
	special.AppendNull()
	ints := make([]int64, 3000)
	for i := range ints {
		ints[i] = int64(rng.Intn(500) - 250)
	}
	saturated := NewFloatColumn("saturated")
	for i := 0; i < 130000; i++ {
		saturated.Append(float64(i) * 0.5)
	}
	justUnder := NewFloatColumn("justUnder")
	for i := 0; i < 120000; i++ {
		justUnder.Append(float64(i % 100000))
	}
	allNull := NewFloatColumn("allNull")
	allNull.AppendNull()

	// Decimal columns, whose distinct values StatsRows counts in a bitmap
	// over their keys, and the ones that send it back to the table.
	decimal4 := NewFloatColumn("decimal4")
	mixedExp := NewFloatColumn("mixedExp") // negative, 0 to 3 decimals
	intFloats := NewFloatColumn("intFloats")
	zerosNaN := NewFloatColumn("zerosNaN")
	lateFull := NewFloatColumn("lateFull") // decimal for the first run, not after it
	lateWide := NewFloatColumn("lateWide") // decimal, too wide for a bitmap after the first run
	for i := 0; i < 5000; i++ {
		if i%13 == 0 {
			decimal4.AppendNull()
		} else {
			decimal4.Append(math.Round(rng.Float64()*1e6) / 1e4)
		}
		mixedExp.Append(-float64(rng.Intn(100000)) / []float64{1, 10, 100, 1000}[rng.Intn(4)])
		intFloats.Append(float64(rng.Intn(2000) - 1000))
		switch i % 5 {
		case 0:
			zerosNaN.Append(negZero)
		case 1:
			zerosNaN.Append(math.NaN())
		case 2:
			zerosNaN.Append(0)
		default:
			zerosNaN.Append(float64(rng.Intn(400)-200) / 100)
		}
		if i < readRun {
			lateFull.Append(float64(rng.Intn(1000)) / 10)
			lateWide.Append(float64(rng.Intn(100)) / 100)
		} else {
			lateFull.Append(rng.Float64() * 100)
			lateWide.Append(float64(rng.Intn(1e8)) / 100)
		}
	}
	overCap := NewFloatColumn("overCap") // 110 000 distinct decimals
	for i := 0; i < 110000; i++ {
		overCap.Append(float64(i) / 1e4)
	}
	// Integer ranges whose bitmap takes one word fewer than, as many as
	// and one word more than the table's slots: the bitmap counts the
	// first two, the partitioned table the third
	// (TestCountDecimalsStaysInBudget tells the forms apart).
	var crossover []*FloatColumn
	const crossN = 1000
	for _, words := range []int{tableSlots(crossN) - 1, tableSlots(crossN), tableSlots(crossN) + 1} {
		crossover = append(crossover, crossoverColumn(rng, crossN, words))
	}

	for _, tc := range []struct {
		c    Column
		want int
	}{
		{repeats, -1},
		{special, 7}, // ±0, three NaNs, 1, +Inf, -Inf
		{NewIntColumnFrom("ints", ints), -1},
		{NewBoolColumnFrom("bools", []bool{true, false, true}), 2},
		{saturated, 100001},
		{justUnder, 100000},
		{allNull, 0},
		{NewFloatColumn("empty"), 0},
		{decimal4, -1},
		{mixedExp, -1},
		{intFloats, -1},
		{zerosNaN, -1},
		{lateFull, -1},
		{lateWide, -1},
		{overCap, distinctCap},
		{crossover[0], -1},
		{crossover[1], -1},
		{crossover[2], -1},
	} {
		got := ComputeStats(tc.c).Distinct
		if ref := distinctViaMap(tc.c); got != ref {
			t.Errorf("%s: Distinct = %d, the map counts %d", tc.c.Name(), got, ref)
		}
		if tc.want >= 0 && got != tc.want {
			t.Errorf("%s: Distinct = %d, want %d", tc.c.Name(), got, tc.want)
		}
	}
}

// crossoverColumn is n integers from 0 to 64·(words-1): their bitmap
// takes words words.
func crossoverColumn(rng *rand.Rand, n, words int) *FloatColumn {
	c := NewFloatColumn(fmt.Sprintf("crossover%d", words))
	hi := 64 * (words - 1)
	c.Append(0)
	c.Append(float64(hi))
	for i := 2; i < n; i++ {
		c.Append(float64(rng.Intn(hi + 1)))
	}
	return c
}

// TestCountDecimalsStaysInBudget: the distinct values of an in-memory
// decimal column are counted in one pass into a bitmap over their keys'
// range when it takes no more words than their table, and otherwise in
// a table of partSlots slots, an eighth of the whole, one hash partition
// a pass over tableParts passes — and the count is the map's. A
// partition whose values fill its table gives the count back to the
// whole table, and StatsRows still counts exactly. (A segment column's
// wide decimals take the whole table in one pass:
// TestInspectionReadsPagesNotRows in internal/core bounds its passes.)
func TestCountDecimalsStaysInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 40000
	slots, part := tableSlots(n), partSlots(n)
	decimals := func(name string, draw func() float64) *FloatColumn {
		c := NewFloatColumn(name)
		for i := 0; i < n; i++ {
			c.Append(draw())
		}
		return c
	}
	nan := decimals("wideNaN", func() float64 { return float64(rng.Intn(1e8)) / 1e4 })
	nan.vals[7], nan.vals[9], nan.vals[n-1] = math.NaN(), math.Copysign(0, -1), math.NaN()
	// inPartition0 draws a wide decimal whose hash falls in partition 0
	// of tableParts, as every value of a column of them does.
	inPartition0 := func() float64 {
		for {
			v := float64(rng.Intn(1e9)) / 100
			if p, _ := bits.Mul64((math.Float64bits(v)^floatSetEmpty)*0x9E3779B97F4A7C15, tableParts); p == 0 {
				return v
			}
		}
	}
	for _, tc := range []struct {
		c      *FloatColumn
		passes int // 0: a partition fills, and countDecimals hands back
		words  int // the most the counter may take
	}{
		{decimals("narrow", func() float64 { return math.Round(rng.Float64()*1e5) / 1e4 }), 1, 1563},
		{crossoverColumn(rng, n, slots), 1, slots},
		{crossoverColumn(rng, n, slots+1), tableParts, part},
		{decimals("wide", func() float64 { return float64(rng.Intn(1e8)) / 1e4 }), tableParts, part},
		{decimals("heavyTail", func() float64 { return math.Round(math.Exp(2*rng.NormFloat64())*1e4) / 1e4 }), tableParts, part},
		{nan, tableParts, part},
		{decimals("onePartition", inPartition0), 0, part},
	} {
		vals, present := tc.c.vals, make([]uint8, n)
		for i := range present {
			present[i] = 1
		}
		passes := 0
		pass := func(fn func(vals []float64, present []uint8) bool) {
			passes++
			for off := 0; off < n; off += readRun {
				if !fn(vals[off:min(off+readRun, n)], present[off:min(off+readRun, n)]) {
					return
				}
			}
		}
		s := ComputeStats(tc.c)
		var got int
		var ok bool
		bytes := allocated(func() {
			passes = 0
			got, ok = countDecimals(pass, s.Min, s.Max, decimalExp(vals, present, 0), s.Count, true)
		})
		ref := distinctViaMap(tc.c)
		switch {
		case tc.passes == 0 && ok:
			t.Errorf("%s: countDecimals kept one partition of %d values in %d slots", tc.c.Name(), n, part)
		case tc.passes != 0 && (!ok || got != ref || passes != tc.passes):
			t.Errorf("%s: countDecimals = %d, %v in %d passes; want %d in %d", tc.c.Name(), got, ok, passes, ref, tc.passes)
		}
		// The counter, rounded up to the allocator's 8 KB pages, and the
		// pass closures.
		if limit := uint64(8*tc.words + 9<<10); bytes > limit {
			t.Errorf("%s: countDecimals allocated %d bytes, budget %d", tc.c.Name(), bytes, limit)
		}
		if s.Distinct != ref {
			t.Errorf("%s: Distinct = %d, the map counts %d", tc.c.Name(), s.Distinct, ref)
		}
	}
}

func TestStatsMissingColumn(t *testing.T) {
	tab := newTestTable(t)
	s := Stats(tab, "nope")
	if s.Count != 0 || s.Name != "nope" {
		t.Error("missing column should yield zero stats")
	}
}

func TestIsLikelyKey(t *testing.T) {
	n := 200
	ids := make([]int64, n)
	names := make([]string, n)
	cat := make([]string, n)
	for i := range ids {
		ids[i] = int64(i + 1)
		names[i] = "row-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + "-" + strings.Repeat("x", i%7) + string(rune('A'+i/26%26)) + string(rune('0'+i/100))
		cat[i] = []string{"a", "b", "c"}[i%3]
	}
	// Force uniqueness of names.
	for i := range names {
		names[i] = names[i] + "#" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
	}
	if !IsLikelyKey(NewIntColumnFrom("id", ids)) {
		t.Error("sequential int should be a key")
	}
	if !IsLikelyKey(NewStringColumnFrom("name", names)) {
		t.Error("all-distinct string should be a key")
	}
	if IsLikelyKey(NewStringColumnFrom("cat", cat)) {
		t.Error("low-cardinality categorical is not a key")
	}
	sparse := make([]int64, n)
	for i := range sparse {
		sparse[i] = int64(i * 1000) // distinct but very sparse: a measure, not a key
	}
	if IsLikelyKey(NewIntColumnFrom("sparse", sparse)) {
		t.Error("sparse distinct ints should not be flagged as key")
	}
}

// likelyKeyByStats is the rule IsLikelyKey implements, stated through
// ComputeStats over the scanned prefix: no nulls, distinct ratio above
// 0.99 and, for integers, density above 0.5.
func likelyKeyByStats(c Column) bool {
	if c.Len() == 0 {
		return false
	}
	if c.Len() > maxKeyScanRows {
		c = c.Gather(rangeRows(0, maxKeyScanRows))
	}
	s := ComputeStats(c)
	if s.Nulls > 0 || s.Count == 0 {
		return false
	}
	ratio := float64(s.Distinct) / float64(s.Count)
	switch c.Type() {
	case String:
		return ratio > 0.99
	case Int64:
		span := s.Max - s.Min + 1
		return ratio > 0.99 && span > 0 && float64(s.Count)/span > 0.5
	}
	return false
}

// opaqueColumn hides the concrete column type, so IsLikelyKey takes
// its path for column implementations it does not know.
type opaqueColumn struct{ Column }

// TestIsLikelyKeyMatchesStatsRule is the differential for the
// distinct-count-only IsLikelyKey: generated string and integer
// columns — keys, near-keys either side of the 99% line, densities
// either side of one half, nulls in and after the scanned prefix,
// columns longer than the prefix — must get the verdict of the
// ComputeStats rule, on in-memory, opaque and segment-backed columns.
func TestIsLikelyKeyMatchesStatsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var cols []Column
	add := func(c Column) { cols = append(cols, c, opaqueColumn{c}) }
	// n values of which the last repeats copy earlier ones; nullAt < n
	// makes that row null; step spreads the integers.
	gen := func(n, repeats, nullAt, step int) {
		name := fmt.Sprintf("n%d_r%d_null%d_step%d", n, repeats, nullAt, step)
		ic, sc := NewIntColumn("int_"+name), NewStringColumn("str_"+name)
		for i := 0; i < n; i++ {
			v := i
			if i >= n-repeats {
				v = rng.Intn(n - repeats)
			}
			if i == nullAt {
				ic.AppendNull()
				sc.AppendNull()
				continue
			}
			ic.Append(int64(v*step - 40))
			sc.Append(fmt.Sprintf("v%d", v))
		}
		add(ic)
		add(sc)
	}
	for _, n := range []int{1, 2, 100, 1000} {
		for _, repeats := range []int{0, 1, n / 100, n/100 + 1, n / 2} {
			if repeats >= n {
				continue
			}
			for _, step := range []int{1, 2, 3} {
				gen(n, repeats, -1, step)
			}
			gen(n, repeats, 0, 1)
			gen(n, repeats, n-1, 1)
		}
	}
	// Longer than the prefix: what lies beyond it must not count.
	long := maxKeyScanRows + 5000
	gen(long, 0, -1, 1)
	gen(long, 4000, -1, 1)            // repeats beyond the prefix only
	gen(long, long/2, -1, 1)          // repeats inside it
	gen(long, 0, maxKeyScanRows+1, 1) // a null beyond it
	gen(long, 0, maxKeyScanRows-1, 1) // a null on its last row
	gen(long, 5000+maxKeyScanRows/100, -1, 1)
	gen(long, 5000+maxKeyScanRows/100+1, -1, 2)
	// Integers as floats: negative ones, and ones either side of ±2^53,
	// where a float64 holds only every other integer, so the rule counts
	// the values a float keeps apart.
	ints := func(name string, n int, at func(i int) int64) {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = at(i)
		}
		add(NewIntColumnFrom(name, vals))
	}
	const big = int64(1) << 53
	ints("negative", 1000, func(i int) int64 { return int64(-2000 + i) })
	ints("negative_sparse", 1000, func(i int) int64 { return int64(-3 * i) })
	for _, sign := range []int64{1, -1} {
		ints(fmt.Sprintf("to_2^53_%d", sign), 1000, func(i int) int64 { return sign * (big - 999 + int64(i)) })
		ints(fmt.Sprintf("past_2^53_%d", sign), 1000, func(i int) int64 { return sign * (big - 998 + int64(i)) })
		ints(fmt.Sprintf("across_2^53_%d", sign), 1000, func(i int) int64 { return sign * (big - 500 + int64(i)) })
		ints(fmt.Sprintf("even_beyond_2^53_%d", sign), 1000, func(i int) int64 { return sign * (big + 2*int64(i)) })
		ints(fmt.Sprintf("beyond_2^53_%d", sign), 1000, func(i int) int64 { return sign * (big + 1 + int64(i)) })
	}
	// A constant beyond 2^53 passes the density rule but has no decimal
	// key; one row of it is a key.
	ints("constant_2^60", 1000, func(int) int64 { return 1 << 60 })
	ints("single_2^60", 1, func(int) int64 { return 1 << 60 })
	add(NewFloatColumnFrom("f", []float64{1, 2, 3}))
	add(NewBoolColumnFrom("b", []bool{true, false}))
	add(NewIntColumn("empty"))

	// The same rule through segment-backed columns.
	dir := t.TempDir()
	var csv strings.Builder
	csv.WriteString("id,name,cat,gappy\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&csv, "%d,row%d,c%d,", 1000+i, i, i%7)
		if i != 300 {
			fmt.Fprintf(&csv, "%d", i)
		}
		csv.WriteString("\n")
	}
	if err := os.WriteFile(dir+"/keys.csv", []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSegment(dir+"/keys.csv", dir+"/keys.seg", &SegmentBuildOptions{RowsPerPage: 64}); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentTableWith(dir+"/keys.seg", segment.NewPoolObs(1<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for i := 0; i < seg.NumCols(); i++ {
		cols = append(cols, seg.Column(i))
	}

	keys := 0
	for _, c := range cols {
		want := likelyKeyByStats(c)
		if got := IsLikelyKey(c); got != want {
			t.Errorf("IsLikelyKey(%s, %d rows, %T) = %v, the stats rule says %v", c.Name(), c.Len(), c, got, want)
		}
		if want {
			keys++
		}
	}
	if keys == 0 || keys == len(cols) {
		t.Fatalf("%d of %d generated columns are keys: the generator no longer straddles the rule", keys, len(cols))
	}
	// Its bitmap spans its one value, not the keys no decimal stands for.
	constant := make([]int64, 1000)
	for i := range constant {
		constant[i] = 1 << 60
	}
	cc := NewIntColumnFrom("constant", constant)
	if got := allocated(func() { IsLikelyKey(cc) }); got > 16<<10 {
		t.Errorf("IsLikelyKey of a constant column beyond 2^53 allocated %d bytes", got)
	}
}
