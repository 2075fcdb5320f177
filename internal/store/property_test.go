package store

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestGatherRoundTripProperty: a gather of any rows — all of them in
// order, ascending and sparse across pages, a shuffled permutation,
// repeated rows, none — reads every column kind's values and nulls at
// those rows, from an in-memory table, its segment at pages of 8 rows
// (so runs cross pages) and a foreign column implementation alike. An
// Int64 comes back exact at and beyond ±2^53, a string column's
// dictionary is rebuilt in the rows' first-appearance order, and a
// float gather that meets no null has an empty null bitmap.
func TestGatherRoundTripProperty(t *testing.T) {
	const rpp = 8
	wide := []int64{1<<53 + 1, -(1<<53 + 1), 1<<62 + 3, math.MaxInt64, math.MinInt64}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		fc, ic, sc, bc := NewFloatColumn("f"), NewIntColumn("i"), NewStringColumn("s"), NewBoolColumn("b")
		for r := 0; r < n; r++ {
			if rng.Float64() < 0.15 {
				fc.AppendNull()
				ic.AppendNull()
				sc.AppendNull()
				bc.AppendNull()
				continue
			}
			fc.Append(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				ic.Append(wide[rng.Intn(len(wide))])
			} else {
				ic.Append(rng.Int63n(100))
			}
			sc.Append([]string{"x", "y", "z"}[rng.Intn(3)])
			bc.Append(rng.Intn(2) == 0)
		}
		mem := NewTable("g")
		for _, c := range []Column{fc, ic, sc, bc} {
			mem.MustAddColumn(c)
		}
		seg := segmentOf(t, mem, rpp)
		repeated := make([]int, 2*n)
		for k := range repeated {
			repeated[k] = rng.Intn(n)
		}
		shapes := map[string][]int{
			"all": rangeRows(0, n), "sparse": SampleIndices(n, 1+n/rpp, rng),
			"shuffled": rng.Perm(n), "repeated": repeated, "empty": {},
		}
		for ci := range mem.NumCols() {
			want := mem.Column(ci)
			for _, c := range []Column{want, seg.Column(ci), foreignCol{seg.Column(ci)}} {
				for shape, rows := range shapes {
					g := c.Gather(rows)
					if g.Len() != len(rows) || g.Type() != want.Type() {
						t.Logf("%s of %T, %s rows: gathered %d rows of %v", want.Name(), c, shape, g.Len(), g.Type())
						return false
					}
					var dict []string
					nulls := 0
					for k, r := range rows {
						if g.IsNull(k) != want.IsNull(r) || g.StringAt(k) != want.StringAt(r) {
							t.Logf("%s of %T, %s rows: row %d reads %q, want %q", want.Name(), c, shape, r, g.StringAt(k), want.StringAt(r))
							return false
						}
						if want.IsNull(r) {
							nulls++
						} else if v := want.StringAt(r); !slices.Contains(dict, v) {
							dict = append(dict, v)
						}
					}
					switch g := g.(type) {
					case *IntColumn:
						for k, r := range rows {
							if !g.IsNull(k) && g.vals[k] != ic.vals[r] {
								t.Logf("%T, %s rows: row %d reads %d, want %d", c, shape, r, g.vals[k], ic.vals[r])
								return false
							}
						}
					case *StringColumn:
						if !slices.Equal(g.Dict(), dict) {
							t.Logf("%T, %s rows: dictionary %q, want %q", c, shape, g.Dict(), dict)
							return false
						}
					case *FloatColumn:
						if nulls == 0 && g.nulls.Len() != 0 {
							t.Logf("%T, %s rows: a gather with no null has a %d-bit null bitmap", c, shape, g.nulls.Len())
							return false
						}
					}
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
