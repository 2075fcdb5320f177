package store

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestGatherRoundTripProperty: gathering all indices in order reproduces
// the column exactly, including nulls, for every column type.
func TestGatherRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		cols := []Column{
			NewFloatColumn("f"), NewIntColumn("i"), NewStringColumn("s"), NewBoolColumn("b"),
		}
		for r := 0; r < n; r++ {
			if rng.Float64() < 0.15 {
				for _, c := range cols {
					c.AppendNull()
				}
				continue
			}
			cols[0].(*FloatColumn).Append(rng.NormFloat64())
			cols[1].(*IntColumn).Append(rng.Int63n(100))
			cols[2].(*StringColumn).Append([]string{"x", "y", "z"}[rng.Intn(3)])
			cols[3].(*BoolColumn).Append(rng.Intn(2) == 0)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for _, c := range cols {
			g := c.Gather(all)
			if g.Len() != n {
				return false
			}
			for i := 0; i < n; i++ {
				if g.IsNull(i) != c.IsNull(i) || g.StringAt(i) != c.StringAt(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPredicateParserRoundTripProperty: random predicate trees survive a
// String() → ParsePredicate round trip with identical row matches.
func TestPredicateParserRoundTripProperty(t *testing.T) {
	tab := NewTable("p")
	tab.MustAddColumn(NewFloatColumnFrom("x", []float64{-3, -1, 0, 1, 2, 5, 9}))
	tab.MustAddColumn(NewStringColumnFrom("s", []string{"a", "b", "c", "a", "b", "c", "a"}))

	var build func(rng *rand.Rand, depth int) Predicate
	build = func(rng *rand.Rand, depth int) Predicate {
		if depth <= 0 || rng.Float64() < 0.4 {
			switch rng.Intn(4) {
			case 0:
				ops := []CmpOp{Lt, Le, Gt, Ge, Eq, Ne}
				return NumCmp{Col: "x", Op: ops[rng.Intn(len(ops))], Val: float64(rng.Intn(11) - 4)}
			case 1:
				return StrEq{Col: "s", Val: []string{"a", "b", "c"}[rng.Intn(3)], Neq: rng.Intn(2) == 0}
			case 2:
				return StrIn{Col: "s", Vals: []string{"a", "c"}}
			default:
				return IsNull{Col: "x", Not: rng.Intn(2) == 0}
			}
		}
		switch rng.Intn(3) {
		case 0:
			return And{build(rng, depth-1), build(rng, depth-1)}
		case 1:
			return Or{build(rng, depth-1), build(rng, depth-1)}
		default:
			return Not{P: build(rng, depth-1)}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := build(rng, 3)
		back, err := ParsePredicate(orig.String())
		if err != nil {
			t.Logf("parse %q: %v", orig.String(), err)
			return false
		}
		a, b := tab.Filter(orig), tab.Filter(back)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSortPermutationProperty: sorting returns a permutation of [0,n).
func TestSortPermutationProperty(t *testing.T) {
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
		idx, err := SortedIndices(tab, SortKey{Col: "v", Desc: true})
		if err != nil || len(idx) != len(vals) {
			return false
		}
		seen := make([]bool, len(vals))
		for _, i := range idx {
			if i < 0 || i >= len(vals) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	tab := NewTable("d")
	tab.MustAddColumn(NewFloatColumnFrom("num", []float64{1, 2, 3}))
	tab.MustAddColumn(NewStringColumnFrom("cat", []string{"a", "a", "b"}))
	d := Describe(tab)
	if d.NumRows() != 2 {
		t.Fatalf("describe rows = %d", d.NumRows())
	}
	if d.ColumnByName("column").StringAt(0) != "num" {
		t.Error("column names wrong")
	}
	if d.ColumnByName("mean").Float(0) != 2 {
		t.Error("mean wrong")
	}
	if !d.ColumnByName("mean").IsNull(1) {
		t.Error("categorical mean should be null")
	}
	if d.ColumnByName("top").StringAt(1) != "a" {
		t.Error("top value wrong")
	}
	if !strings.Contains(d.Name(), "describe") {
		t.Error("name wrong")
	}
}
