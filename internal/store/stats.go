package store

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
)

// ColumnStats summarizes a column in one pass; it backs Blaeu's highlight
// panels and the preprocessing heuristics (key detection, normalization).
type ColumnStats struct {
	Name      string
	Type      Type
	Count     int // non-null rows
	Nulls     int
	Distinct  int
	Min, Max  float64 // numeric columns only (NaN otherwise)
	Mean, Std float64 // numeric columns only
	// TopValues holds the most frequent values, most frequent first
	// (categorical columns only).
	TopValues []ValueCount
}

// MarshalJSON renders the stats under the struct's own field names and
// order, with the moments of a column that has none (non-numeric, or no
// non-null rows) as null: JSON has no NaN, and encoding/json fails the
// whole document on one.
func (s ColumnStats) MarshalJSON() ([]byte, error) {
	finite := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	return json.Marshal(struct {
		Name                   string
		Type                   Type
		Count, Nulls, Distinct int
		Min, Max, Mean, Std    *float64
		TopValues              []ValueCount
	}{s.Name, s.Type, s.Count, s.Nulls, s.Distinct,
		finite(s.Min), finite(s.Max), finite(s.Mean), finite(s.Std), s.TopValues})
}

// ValueCount is a categorical value with its frequency.
type ValueCount struct {
	Value string
	Count int
}

// Stats computes summary statistics for the named column.
// It returns a zero-valued struct when the column does not exist.
func Stats(t Relation, col string) ColumnStats {
	c := t.ColumnByName(col)
	if c == nil {
		return ColumnStats{Name: col}
	}
	return ComputeStats(c)
}

// ComputeStats computes summary statistics for a column.
func ComputeStats(c Column) ColumnStats { return StatsRows(c, All(c.Len())) }

// StatsRows computes the summary statistics of c over the given rows:
// what ComputeStats(c.Gather(rows)) returns, without the copy. The
// column is read run by run through the typed reader (kernel.go), and
// the sums accumulate in row order in one accumulator, so the moments
// are the same bits whatever the backing.
func StatsRows(c Column, rows *RowSet) ColumnStats {
	s := ColumnStats{Name: c.Name(), Type: c.Type(), Min: math.NaN(), Max: math.NaN(),
		Mean: math.NaN(), Std: math.NaN()}
	n := rows.Len()
	rd, ok := bindCol(c)
	if !ok {
		// A foreign Column implementation: its Gather yields one of the
		// store's own.
		c, rows = c.Gather(rows.AppendTo(nil)), All(n)
		rd, _ = bindCol(c)
	}
	// A string column's values are counted by dictionary code (entries
	// are distinct), the others accumulated; a bool column has at most
	// two values to tell apart.
	var counts []int
	acc := numAcc{min: math.Inf(1), max: math.Inf(-1)}
	switch c.Type() {
	case String:
		counts = make([]int, len(rd.dict))
	case Bool:
		acc.distinct.slots = make([]uint64, 3*min(n, 2)/2+1)
	default:
		acc.distinct.slots = make([]uint64, 3*min(n, distinctCap)/2+1)
	}
	vals, present := make([]float64, min(n, readRun)), make([]uint8, min(n, readRun))
	rows.runs(readRun, rd.rpp, func(_, page int, run []int) bool {
		sel := routeIdentity[:len(run)]
		rd.notNull(page, run, sel, present[:len(run)])
		rd.loadFloats(page, run, sel, vals)
		if counts != nil {
			acc.count += countCodes(vals[:len(run)], present, counts)
		} else {
			acc.add(vals[:len(run)], present)
		}
		return true
	})
	s.Count, s.Nulls, s.Distinct = acc.count, n-acc.count, acc.distinct.n
	if counts != nil {
		s.TopValues, s.Distinct = topK(rd.dict, counts, 10)
	} else if s.Count > 0 {
		s.Min, s.Max = acc.min, acc.max
		s.Mean = acc.sum / float64(s.Count)
		variance := acc.sumsq/float64(s.Count) - s.Mean*s.Mean
		if variance < 0 {
			variance = 0
		}
		s.Std = math.Sqrt(variance)
	}
	return s
}

// numAcc accumulates the moments, range and distinct count of the
// values it is shown, in the order shown.
type numAcc struct {
	count      int
	sum, sumsq float64
	min, max   float64
	distinct   floatSet
}

// add takes in the values whose present byte is set.
//
//blaeu:hot
func (a *numAcc) add(vals []float64, present []uint8) {
	for k, v := range vals {
		if present[k] == 0 {
			continue
		}
		a.count++
		a.sum += v
		a.sumsq += v * v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		a.distinct.add(v)
	}
}

// countCodes adds the present codes to counts and returns how many
// there were.
//
//blaeu:hot
func countCodes(codes []float64, present []uint8, counts []int) int {
	n := 0
	for k, c := range codes {
		if present[k] != 0 {
			counts[int(c)]++
			n++
		}
	}
	return n
}

// RowFloats reads c at the given rows as Column.Float does, one page
// fetch per page run: vals[k] is the value of the k-th row (unspecified
// where the row is null) and present[k] is 0 where it is null, else 1.
func RowFloats(c Column, rows *RowSet) (vals []float64, present []uint8) {
	vals, present = make([]float64, rows.Len()), make([]uint8, rows.Len())
	rd, ok := bindCol(c)
	if !ok || c.Type() == String {
		for k, r := range rows.AppendTo(nil) {
			vals[k], present[k] = c.Float(r), bit(!c.IsNull(r))
		}
		return vals, present
	}
	rows.runs(readRun, rd.rpp, func(off, page int, run []int) bool {
		sel := routeIdentity[:len(run)]
		rd.loadFloats(page, run, sel, vals[off:])
		rd.notNull(page, run, sel, present[off:off+len(run)])
		return true
	})
	return vals, present
}

// distinctCap is where ComputeStats stops telling a numeric column's
// values apart: Distinct reads min(distinct values, distinctCap).
const distinctCap = 100001

// floatSet counts distinct float64 values, up to distinctCap, in one
// open-addressing table its user allocates once with half again as many
// slots as values to add: growing a map[float64]struct{} from empty was
// most of what a highlight allocated. Values are told apart as map keys
// are: -0 and +0 are one, every NaN is its own. A slot holds a value's
// bits xor floatSetEmpty — a NaN's bits, and NaNs are not stored, so 0
// marks a free slot.
type floatSet struct {
	slots []uint64
	n     int
}

const floatSetEmpty = 0x7FF8000000000001

func (s *floatSet) add(v float64) {
	if s.n >= distinctCap {
		return
	}
	if v != v {
		s.n++
		return
	}
	if v == 0 {
		v = 0 // folds -0 into +0
	}
	key := math.Float64bits(v) ^ floatSetEmpty
	// Fibonacci hashing, reduced to the table's length by a multiply.
	h, _ := bits.Mul64(key*0x9E3779B97F4A7C15, uint64(len(s.slots)))
	for s.slots[h] != key {
		if s.slots[h] == 0 {
			s.slots[h] = key
			s.n++
			return
		}
		if h++; h == uint64(len(s.slots)) {
			h = 0
		}
	}
}

// topK returns the k most frequent dictionary values (count
// descending, value ascending) and the number of values that occur.
func topK(dict []string, counts []int, k int) ([]ValueCount, int) {
	out := []ValueCount{}
	for code, n := range counts {
		if n > 0 {
			out = append(out, ValueCount{Value: dict[code], Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out[:min(k, len(out))], len(out)
}

// maxKeyScanRows bounds how many rows IsLikelyKey examines.
const maxKeyScanRows = 100000

// IsLikelyKey reports whether a column looks like a primary key or row
// identifier: (almost) all values distinct and non-null. Blaeu's
// preprocessing drops such columns before clustering (paper §3) because a
// unique identifier carries no cluster structure.
//
// The rule, over the first maxKeyScanRows rows: no nulls, more than 99%
// of the values distinct and, for integers (keys are usually sequential
// or near-sequential), more than half of the value range occupied. Only
// distinctness is counted, and the scan stops at the first null or as
// soon as the repeats seen already put the 99% out of reach.
func IsLikelyKey(c Column) bool {
	n := c.Len()
	// Only strings and integers can be keys under the rule, so the
	// other types are answered without a pass over their values.
	if t := c.Type(); n == 0 || (t != String && t != Int64) {
		return false
	}
	// Bound the scan: a prefix this long decides keyness with the same
	// rule on both in-memory and segment-backed columns, so key
	// detection does not force a full pass over an out-of-core column.
	limit := min(n, maxKeyScanRows)
	if seg, ok := c.(*segCol); ok {
		// One cursor pass over the prefix, not a pool round trip per row.
		c = seg.Slice(0, limit)
	}
	// repeated reports whether row i's value occurred before it.
	var repeated func(i int) bool
	lo, hi := math.Inf(1), math.Inf(-1)
	if sc, ok := c.(*StringColumn); ok {
		// Dictionary entries are distinct, so codes stand for values.
		seen := NewBitmap(len(sc.dict))
		repeated = func(i int) bool {
			code := int(sc.codes[i])
			was := seen.Get(code)
			seen.Set(code)
			return was
		}
	} else if c.Type() == String {
		seen := make(map[string]struct{})
		repeated = func(i int) bool {
			v := c.StringAt(i)
			_, was := seen[v]
			seen[v] = struct{}{}
			return was
		}
	} else {
		seen := make(map[float64]struct{})
		repeated = func(i int) bool {
			v := c.Float(i)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			_, was := seen[v]
			seen[v] = struct{}{}
			return was
		}
	}
	repeats := 0
	for i := 0; i < limit; i++ {
		if c.IsNull(i) {
			return false
		}
		if repeated(i) {
			repeats++
			if float64(limit-repeats)/float64(limit) <= 0.99 {
				return false
			}
		}
	}
	if c.Type() == String {
		return true
	}
	span := hi - lo + 1
	return span > 0 && float64(limit)/span > 0.5
}

// Describe summarizes every column of t as a new table (one row per
// column: type, counts, range, moments, distinct values) — the overview
// panel an explorer reads before picking a theme.
func Describe(t Relation) *Table {
	out := NewTable(t.Name() + "_describe")
	name := NewStringColumn("column")
	typ := NewStringColumn("type")
	count := NewIntColumn("count")
	nulls := NewIntColumn("nulls")
	distinct := NewIntColumn("distinct")
	min := NewFloatColumn("min")
	max := NewFloatColumn("max")
	mean := NewFloatColumn("mean")
	std := NewFloatColumn("std")
	top := NewStringColumn("top")
	for i := 0; i < t.NumCols(); i++ {
		s := ComputeStats(t.Column(i))
		name.Append(s.Name)
		typ.Append(s.Type.String())
		count.Append(int64(s.Count))
		nulls.Append(int64(s.Nulls))
		distinct.Append(int64(s.Distinct))
		appendOrNull := func(c *FloatColumn, v float64) {
			if math.IsNaN(v) {
				c.AppendNull()
			} else {
				c.Append(v)
			}
		}
		appendOrNull(min, s.Min)
		appendOrNull(max, s.Max)
		appendOrNull(mean, s.Mean)
		appendOrNull(std, s.Std)
		if len(s.TopValues) > 0 {
			top.Append(s.TopValues[0].Value)
		} else {
			top.AppendNull()
		}
	}
	for _, c := range []Column{name, typ, count, nulls, distinct, min, max, mean, std, top} {
		out.MustAddColumn(c)
	}
	return out
}
