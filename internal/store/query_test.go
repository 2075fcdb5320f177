package store

import (
	"math"
	"testing"
	"testing/quick"
)

func sortTable() *Table {
	t := NewTable("s")
	t.MustAddColumn(NewStringColumnFrom("name", []string{"b", "a", "c", "a"}))
	x := NewFloatColumn("x")
	x.Append(2)
	x.Append(3)
	x.AppendNull()
	x.Append(1)
	t.MustAddColumn(x)
	return t
}

func TestSortedIndicesAsc(t *testing.T) {
	tab := sortTable()
	idx, err := SortedIndices(tab, SortKey{Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2} // 1, 2, 3, null-last
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSortedIndicesDescNullsLast(t *testing.T) {
	tab := sortTable()
	idx, err := SortedIndices(tab, SortKey{Col: "x", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 3, 2} // 3, 2, 1, null still last
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	tab := sortTable()
	idx, err := SortedIndices(tab, SortKey{Col: "name"}, SortKey{Col: "x", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	// names: a,a,b,c ; among the two a's, x desc → row1 (x=3) before row3 (x=1).
	want := []int{1, 3, 0, 2}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestOrderByAndTopK(t *testing.T) {
	tab := sortTable()
	sorted, err := OrderBy(tab, SortKey{Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if sorted.ColumnByName("x").Float(0) != 1 {
		t.Error("orderby wrong")
	}
	if _, err := SortedIndices(tab, SortKey{Col: "zzz"}); err == nil {
		t.Error("unknown sort column should fail")
	}
}

func TestSortProperty(t *testing.T) {
	f := func(vals []float64) bool {
		tab := NewTable("p")
		c := NewFloatColumn("v")
		for _, v := range vals {
			if math.IsNaN(v) {
				c.AppendNull()
			} else {
				c.Append(v)
			}
		}
		tab.MustAddColumn(c)
		idx, err := SortedIndices(tab, SortKey{Col: "v"})
		if err != nil {
			return false
		}
		// Non-null prefix must be nondecreasing; nulls all at the end.
		seenNull := false
		var prev float64
		first := true
		for _, r := range idx {
			if c.IsNull(r) {
				seenNull = true
				continue
			}
			if seenNull {
				return false // non-null after null
			}
			v := c.Value(r)
			if !first && v < prev {
				return false
			}
			prev, first = v, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParsePredicateBasic(t *testing.T) {
	tab := newTestTable(t)
	cases := []struct {
		expr string
		want int
	}{
		{"hours >= 20", 2},
		{"hours < 9", 3},
		{"name = 'CA'", 1},
		{"name <> 'CA'", 5},
		{"name != 'CA'", 5},
		{"hours >= 20 AND income < 30", 1},
		{"hours >= 20 OR hours < 7", 3},
		{"NOT name = 'CA'", 5},
		{"(hours < 9 OR hours >= 22) AND income > 27", 4},
		{"name IN ('NL', 'FR', 'XX')", 2},
		{"income IS NOT NULL", 6},
		{"income IS NULL", 0},
		{"rank = 3", 1},
		{"TRUE", 6},
	}
	for _, tc := range cases {
		p, err := ParsePredicate(tc.expr)
		if err != nil {
			t.Errorf("parse %q: %v", tc.expr, err)
			continue
		}
		if got := len(tab.Filter(p)); got != tc.want {
			t.Errorf("%q matched %d rows, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestParsePredicatePrecedence(t *testing.T) {
	// a OR b AND c parses as a OR (b AND c).
	p, err := ParsePredicate("hours >= 22 OR hours < 9 AND income >= 33")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := p.(Or)
	if !ok || len(or) != 2 {
		t.Fatalf("parsed %T %v", p, p)
	}
	if _, ok := or[1].(And); !ok {
		t.Fatalf("right side should be And, got %T", or[1])
	}
}

func TestParsePredicateQuotedIdent(t *testing.T) {
	tab := NewTable("t")
	tab.MustAddColumn(NewFloatColumnFrom("% long hours", []float64{5, 25}))
	p, err := ParsePredicate(`"% long hours" >= 20`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tab.Filter(p)); got != 1 {
		t.Errorf("matched %d", got)
	}
}

func TestParsePredicateEscapedString(t *testing.T) {
	tab := NewTable("t")
	tab.MustAddColumn(NewStringColumnFrom("s", []string{"it's", "other"}))
	p, err := ParsePredicate("s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tab.Filter(p)); got != 1 {
		t.Errorf("matched %d", got)
	}
}

func TestParsePredicateBooleans(t *testing.T) {
	tab := NewTable("t")
	tab.MustAddColumn(NewBoolColumnFrom("flag", []bool{true, false, true}))
	p, err := ParsePredicate("flag = true")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tab.Filter(p)); got != 2 {
		t.Errorf("matched %d", got)
	}
	p, err = ParsePredicate("flag <> FALSE")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tab.Filter(p)); got != 2 {
		t.Errorf("matched %d", got)
	}
}

func TestParsePredicateNumbers(t *testing.T) {
	tab := NewTable("t")
	tab.MustAddColumn(NewFloatColumnFrom("x", []float64{-1.5, 0, 2e3}))
	cases := map[string]int{
		"x = -1.5":   1,
		"x >= 0":     2,
		"x = 2e3":    1,
		"x < 1.5e-2": 2,
	}
	for expr, want := range cases {
		p, err := ParsePredicate(expr)
		if err != nil {
			t.Errorf("parse %q: %v", expr, err)
			continue
		}
		if got := len(tab.Filter(p)); got != want {
			t.Errorf("%q matched %d, want %d", expr, got, want)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	bad := []string{
		"",
		"hours >=",
		">= 20",
		"hours >= 20 AND",
		"(hours >= 20",
		"name = 'unterminated",
		`"unterminated >= 2`,
		"hours ! 20",
		"hours >= 20 extra",
		"name IN ('a', )",
		"name IN 'a'",
		"hours IS 20",
		"x = NULL",
		"s > 'abc'",
		"flag > true",
		"hours # 2",
	}
	for _, expr := range bad {
		if _, err := ParsePredicate(expr); err == nil {
			t.Errorf("parse %q should fail", expr)
		}
	}
}

func TestOrNullRoundTrip(t *testing.T) {
	tab := NewTable("t")
	c := NewFloatColumn("x")
	c.Append(5)
	c.AppendNull()
	c.Append(1)
	tab.MustAddColumn(c)
	orig := OrNull{P: NumCmp{Col: "x", Op: Ge, Val: 3}, Col: "x"}
	back, err := ParsePredicate(orig.String())
	if err != nil {
		t.Fatalf("parse %q: %v", orig.String(), err)
	}
	a, b := tab.Filter(orig), tab.Filter(back)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("matches: orig %v, parsed %v", a, b)
	}
	// Embedded in a conjunction it must keep its parentheses.
	conj := And{orig, NumCmp{Col: "x", Op: Lt, Val: 100}}
	back2, err := ParsePredicate(conj.String())
	if err != nil {
		t.Fatalf("parse %q: %v", conj.String(), err)
	}
	if len(tab.Filter(back2)) != len(tab.Filter(conj)) {
		t.Error("conjunction round trip changed matches")
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Predicate → String() → parse → same matches.
	tab := newTestTable(t)
	orig := And{
		NumCmp{Col: "hours", Op: Lt, Val: 20},
		Or{StrEq{Col: "name", Val: "CH"}, StrEq{Col: "name", Val: "NO"}},
	}
	back, err := ParsePredicate(orig.String())
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", orig.String(), err)
	}
	a, b := tab.Filter(orig), tab.Filter(back)
	if len(a) != len(b) {
		t.Fatalf("round trip matches differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip matches differ: %v vs %v", a, b)
		}
	}
}
