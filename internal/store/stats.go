package store

import (
	"bytes"
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
	// TopValues holds up to MaxTopValues of the most frequent values,
	// most frequent first (categorical columns only).
	TopValues []ValueCount
}

// MaxTopValues is the number of most frequent values ColumnStats keeps
// for a categorical column.
const MaxTopValues = 12

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
//
// A numeric column's distinct values are counted in whichever of two
// forms is smaller, as a RowSet takes its smallest form. If every value
// is a decimal of at most 9 places (decimalKey), and the range of
// their integer keys takes no more words than the table slots, it is a
// bitmap over that range (keyBitmap): the first pass finds the exponent
// and the range, a second sets the bits. Otherwise it is a floatSet,
// filled in the first pass when the first run already rules the bitmap
// out, else in a second. A second pass stops once it has counted
// distinctCap values.
//
// An in-memory column, whose passes read no pages, counts decimals too
// wide for the bitmap in a table an eighth the size instead, one hash
// partition a pass (countDecimals), so that only a column of values
// that are not decimals allocates the whole table; a segment column's
// highlight reads each page at most twice.
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
	vals, present := make([]float64, min(n, readRun)), make([]uint8, min(n, readRun))
	// pass reads the rows run by run and hands each run's values to fn,
	// until fn returns false.
	pass := func(fn func(vals []float64, present []uint8) bool) {
		rows.runs(readRun, rd.rpp, func(_, page int, run []int) bool {
			sel := routeIdentity[:len(run)]
			rd.notNull(page, run, sel, present[:len(run)])
			rd.loadFloats(page, run, sel, vals)
			return fn(vals[:len(run)], present[:len(run)])
		})
	}
	if c.Type() == String {
		// A string column's values are counted by dictionary code
		// (entries are distinct).
		counts := make([]int, len(rd.dict))
		pass(func(vals []float64, present []uint8) bool {
			s.Count += countCodes(vals, present, counts)
			return true
		})
		s.Nulls = n - s.Count
		s.TopValues, s.Distinct = topK(rd.dict, counts, MaxTopValues)
		return s
	}
	acc := numAcc{min: math.Inf(1), max: math.Inf(-1), maxWords: tableSlots(n)}
	inMemory := rd.seg == nil
	if inMemory {
		acc.maxWords = math.MaxInt
	}
	pass(func(vals []float64, present []uint8) bool {
		first := acc.count == 0
		acc.add(vals, present)
		if first && acc.exp == noDecimal {
			acc.distinct = newFloatSet(n)
			acc.distinct.addAll(vals, present)
		}
		return true
	})
	s.Count, s.Nulls = acc.count, n-acc.count
	if s.Count == 0 {
		return s
	}
	s.Distinct = acc.distinct.n
	if acc.distinct.slots == nil {
		var ok bool
		if s.Distinct, ok = countDecimals(pass, acc.min, acc.max, acc.exp, s.Count, inMemory); !ok {
			acc.distinct = newFloatSet(s.Count)
			pass(func(vals []float64, present []uint8) bool {
				acc.distinct.addAll(vals, present)
				return acc.distinct.n < distinctCap
			})
			s.Distinct = acc.distinct.n
		}
	}
	s.Min, s.Max = acc.min, acc.max
	s.Mean = acc.sum / float64(s.Count)
	variance := acc.sumsq/float64(s.Count) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	return s
}

// numAcc accumulates the moments and range of the values it is shown,
// in the order shown, and either their distinct values, once distinct
// is allocated, or the decimal exponent they need.
type numAcc struct {
	count      int
	sum, sumsq float64
	min, max   float64
	// exp is the least exponent at which every value shown has a
	// decimal key (NaN aside), noDecimal once one has none or their
	// keys span more than maxWords bitmap words.
	exp      int
	maxWords int
	distinct floatSet
}

// add takes in the values whose present byte is set.
//
//blaeu:hot
func (a *numAcc) add(vals []float64, present []uint8) {
	counting := a.distinct.slots != nil
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
		if counting {
			a.distinct.add(v)
		}
	}
	if !counting && a.exp != noDecimal {
		a.exp = decimalExp(vals, present, a.exp)
		if a.min <= a.max && keyWords(a.min, a.max, a.exp) > a.maxWords {
			a.exp = noDecimal
		}
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
		// A string parses as Column.Float parses it, from a gathered copy.
		g := c.Gather(rows.AppendTo(nil))
		for k := range vals {
			vals[k], present[k] = g.Float(k), bit(!g.IsNull(k))
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
// open-addressing table allocated once with a quarter again as many
// slots as values to add (tableSlots), so linear probing never fills it
// past 0.8: growing a map[float64]struct{} from empty cost more. It
// takes 10 B per value, so StatsRows uses it only where a keyBitmap
// would be larger: for values that are not all decimals, or whose
// decimal range is wide. Values are told apart as map keys are: -0 and
// +0 are one, every NaN is its own. A slot holds a value's bits xor
// floatSetEmpty — a NaN's bits, and NaNs are not stored, so 0 marks a
// free slot.
//
// A set may take in only the values of one of parts partitions of the
// hash, part, so that a smaller table counts them all, a partition a
// pass (countDecimals); NaNs belong to partition 0. held counts the
// slots in use, n every value taken in since the set was made.
type floatSet struct {
	slots       []uint64
	n, held     int
	part, parts uint64
}

const floatSetEmpty = 0x7FF8000000000001

// tableSlots is the size of a floatSet for n values.
func tableSlots(n int) int { return min(n, distinctCap)*5/4 + 1 }

func newFloatSet(n int) floatSet { return floatSet{slots: make([]uint64, tableSlots(n)), parts: 1} }

// add takes v, which must fall in the set's partition (mine), in and
// reports whether it was new. A set that holds distinctCap values takes
// nothing more in.
func (s *floatSet) add(v float64) bool {
	if s.n >= distinctCap {
		return false
	}
	if v != v {
		s.n++
		return true
	}
	if v == 0 {
		v = 0 // folds -0 into +0
	}
	key := math.Float64bits(v) ^ floatSetEmpty
	// Fibonacci hashing: the hash times parts has the partition in its
	// high word (mine) and the slot, reduced to the table's length by a
	// multiply, in its low (for one partition, the whole hash).
	_, h := bits.Mul64(key*0x9E3779B97F4A7C15, s.parts)
	i, _ := bits.Mul64(h, uint64(len(s.slots)))
	for s.slots[i] != key {
		if s.slots[i] == 0 {
			s.slots[i] = key
			s.n++
			s.held++
			return true
		}
		if i++; i == uint64(len(s.slots)) {
			i = 0
		}
	}
	return false
}

// mine reports whether v falls in the set's partition.
//
//blaeu:hot
func (s *floatSet) mine(v float64) bool {
	if v != v {
		return s.part == 0
	}
	if v == 0 {
		v = 0
	}
	part, _ := bits.Mul64((math.Float64bits(v)^floatSetEmpty)*0x9E3779B97F4A7C15, s.parts)
	return part == s.part
}

// addAll takes in the values whose present byte is set and that fall in
// the set's partition. It returns false, having stopped, once the table
// has one free slot left, which a partition's table can reach; a table
// sized by tableSlots for the values it is shown never does.
//
//blaeu:hot
func (s *floatSet) addAll(vals []float64, present []uint8) bool {
	for k, v := range vals {
		if s.held == len(s.slots)-1 {
			return false
		}
		if present[k] != 0 && (s.parts == 1 || s.mine(v)) {
			s.add(v)
		}
	}
	return true
}

// pow10 holds the powers of ten a decimal key may scale by, each exact.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// noDecimal is the exponent of a value that has no decimal key.
const noDecimal = len(pow10)

// decimalKey returns v's key at the exponent e whose power p is
// pow10[e], v·10^e rounded to an integer, and whether it stands for v:
// it is under 2^53 in magnitude, so exact, and divided back by 10^e
// gives v again. Keys that stand for their values are as distinct as
// the values, except that -0 and +0 share the key 0, as they share a
// floatSet slot. A NaN or an infinity has none.
//
//blaeu:hot
func decimalKey(v, p float64) (int64, bool) {
	k := math.RoundToEven(v * p) // one instruction where math.Round is a dozen
	return int64(k), math.Abs(k) < 1<<53 && k/p == v
}

// decimalExp returns the least exponent from e up at which every
// present value but NaN has a decimal key, or noDecimal if one has
// none.
//
//blaeu:hot
func decimalExp(vals []float64, present []uint8, e int) int {
	for k, v := range vals {
		if present[k] == 0 || v != v {
			continue
		}
		for {
			if _, ok := decimalKey(v, pow10[e]); ok {
				break
			}
			if e++; e == noDecimal {
				return e
			}
		}
	}
	return e
}

// tableParts is how many hash partitions the table of an in-memory
// decimal column too wide for a bitmap is split into, one pass each, so
// that it takes an eighth of the words (partSlots).
const tableParts = 8

// partSlots is the size of the table of one of tableParts partitions of
// count values: an eighth of their table, but no fewer than 512 slots
// (4 KB), so that a small region is split into no more passes than it
// must.
func partSlots(count int) int { return max((tableSlots(count)+tableParts-1)/tableParts, 512) }

// countDecimals counts the distinct values of the rows pass reads,
// count of them present, from least to most, which the first pass found
// to be decimals at exponent e. If the bitmap over their keys' range
// takes no more words than their table, one pass fills it. Otherwise,
// if split, a table of partSlots slots takes them in, one hash partition
// a pass. It reports false if e is noDecimal, if a value turns out to
// have no key at e (decimalExp checked it at a smaller one), if the
// bitmap is too wide and split is false, or if a partition's values fill
// its table: then only the whole table counts them.
func countDecimals(pass func(func(vals []float64, present []uint8) bool), least, most float64, e, count int, split bool) (int, bool) {
	if e == noDecimal {
		return 0, false
	}
	ok := true
	slots := tableSlots(count)
	if words := keyWords(least, most, e); words <= slots {
		lo, _ := decimalKey(least, pow10[e])
		keys := keyBitmap{words: make([]uint64, words), lo: lo, p: pow10[e]}
		pass(func(vals []float64, present []uint8) bool {
			ok = keys.add(vals, present)
			return ok && keys.n < distinctCap
		})
		return min(keys.n, distinctCap), ok
	}
	if !split {
		return 0, false
	}
	part := partSlots(count)
	set := floatSet{slots: make([]uint64, part), parts: uint64((slots + part - 1) / part)}
	for ; ok && set.part < set.parts && set.n < distinctCap; set.part++ {
		clear(set.slots)
		set.held = 0
		pass(func(vals []float64, present []uint8) bool {
			ok = set.addAll(vals, present)
			return ok && set.n < distinctCap
		})
	}
	return set.n, ok
}

// keyBitmap counts distinct decimals as a bit per key at one exponent,
// whose power is p, from the key lo up, and each NaN as a value of its
// own: 1/8 B per key of the values' range, against a floatSet's 10 B
// per value. n is the count. IsLikelyKey counts dictionary codes and
// integer offsets in one at exponent 0.
type keyBitmap struct {
	words []uint64
	lo    int64
	p     float64
	n     int
}

// keyWords returns the words of a keyBitmap over the keys from least's
// to most's at exponent e, or math.MaxInt if either has none.
//
//blaeu:hot
func keyWords(least, most float64, e int) int {
	if e == noDecimal {
		return math.MaxInt
	}
	lo, okLo := decimalKey(least, pow10[e])
	hi, okHi := decimalKey(most, pow10[e])
	if !okLo || !okHi {
		return math.MaxInt
	}
	return int((hi-lo)/64 + 1)
}

// add sets the bit of every present value's key. It returns false at
// the first value whose key does not stand for it or lies outside the
// bitmap, which then counts nothing.
//
//blaeu:hot
func (b *keyBitmap) add(vals []float64, present []uint8) bool {
	span := uint64(len(b.words)) << 6
	for k, v := range vals {
		if present[k] == 0 {
			continue
		}
		if v != v {
			b.n++
			continue
		}
		key, ok := decimalKey(v, b.p)
		bit := uint64(key - b.lo)
		if !ok || bit >= span {
			return false
		}
		w := b.words[bit>>6]
		b.n += int(^w >> (bit & 63) & 1)
		b.words[bit>>6] = w | 1<<(bit&63)
	}
	return true
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
// or near-sequential), more than half of the value range occupied. The
// prefix is read run by run through the typed reader (kernel.go), as
// StatsRows reads a column, and its distinct values are counted in a
// keyBitmap: a string's dictionary codes, or an integer's offsets from
// the least value, which a first pass finds. The density rule bounds
// that range to twice the prefix, so a range it rejects is never
// counted. A pass stops at the first run that holds a null, and the
// count as soon as the repeats seen put the 99% out of reach; a segment
// column's prefix pages are read once for a string, twice for an
// integer.
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
	rd, ok := bindCol(c)
	if !ok {
		// A foreign Column implementation: its Gather yields one of the
		// store's own.
		c = c.Gather(rangeRows(0, limit))
		rd, _ = bindCol(c)
	}
	rows := All(limit)
	vals, present := make([]float64, min(limit, readRun)), make([]uint8, min(limit, readRun))
	// pass reads the prefix run by run and hands each run's values to fn,
	// until fn returns false; it reports false, having stopped, at the
	// first run that holds a null.
	pass := func(fn func(vals []float64) bool) bool {
		noNulls := true
		rows.runs(readRun, rd.rpp, func(_, page int, run []int) bool {
			sel := routeIdentity[:len(run)]
			rd.notNull(page, run, sel, present[:len(run)])
			if noNulls = bytes.IndexByte(present[:len(run)], 0) < 0; !noNulls {
				return false
			}
			rd.loadFloats(page, run, sel, vals)
			return fn(vals[:len(run)])
		})
		return noNulls
	}
	// Dictionary entries are distinct, so codes stand for values.
	lo, hi := 0.0, float64(len(rd.dict)-1)
	if c.Type() == Int64 {
		lo, hi = math.Inf(1), math.Inf(-1)
		if !pass(func(vals []float64) bool {
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			return true
		}) || float64(limit)/(hi-lo+1) <= 0.5 {
			return false
		}
	}
	// The values are integers, so an offset from lo is exact however
	// large they are, and under 2·limit once the density rule holds.
	keys := keyBitmap{words: make([]uint64, int(hi-lo)/64+1), p: 1}
	repeats := 0
	distinct := func() bool { return float64(limit-repeats)/float64(limit) > 0.99 }
	return pass(func(vals []float64) bool {
		for k := range vals {
			vals[k] -= lo
		}
		seen := keys.n
		keys.add(vals, present)
		repeats += len(vals) - (keys.n - seen)
		return distinct()
	}) && distinct()
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
