package store

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the storage type of a column.
type Type int

const (
	// Float64 is a continuous numeric column.
	Float64 Type = iota
	// Int64 is an integer numeric column.
	Int64
	// String is a categorical / free-text column (dictionary encoded).
	String
	// Bool is a boolean column.
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Float64:
		return "DOUBLE"
	case Int64:
		return "BIGINT"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// IsNumeric reports whether the type holds ordered numeric values.
func (t Type) IsNumeric() bool { return t == Float64 || t == Int64 }

// Column is a typed, nullable, read-only vector of values; rows are
// addressed by dense integer position. The in-memory implementations
// are built by their own Append and AppendNull.
type Column interface {
	// Name returns the column name.
	Name() string
	// Type returns the storage type.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// IsNull reports whether row i holds a missing value.
	IsNull(i int) bool
	// NullCount returns the number of missing values.
	NullCount() int
	// Float returns row i coerced to float64 (strings are NaN unless
	// parseable; bools map to 0/1). Null rows return NaN.
	Float(i int) float64
	// StringAt returns row i rendered as a string ("" for null).
	StringAt(i int) string
	// Gather returns a new column containing the given rows, in order.
	Gather(rows []int) Column
}

// ---------------------------------------------------------------------------
// Float column

// FloatColumn is a nullable vector of float64 values.
type FloatColumn struct {
	name  string
	vals  []float64
	nulls *Bitmap
}

// NewFloatColumn returns an empty float column with the given name.
func NewFloatColumn(name string) *FloatColumn {
	return &FloatColumn{name: name, nulls: NewBitmap(0)}
}

// refill readies c, a gather's output, for n rows named name, on its
// own storage: the values go into buf, or into a new slice when buf has
// less room, and the null bitmap's words, kept from c's last gather,
// are taken only by the first null (Bitmap.setCovering): a gather that
// meets none leaves the bitmap empty. The gather writes every value.
func (c *FloatColumn) refill(name string, buf []float64, n int) {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	if c.nulls == nil {
		c.nulls = new(Bitmap)
	}
	c.name, c.vals = name, buf[:n]
	c.nulls.words, c.nulls.n = c.nulls.words[:0], 0
}

// NewFloatColumnFrom builds a float column from values; NaNs become nulls.
func NewFloatColumnFrom(name string, vals []float64) *FloatColumn {
	c := NewFloatColumn(name)
	for _, v := range vals {
		if math.IsNaN(v) {
			c.AppendNull()
		} else {
			c.Append(v)
		}
	}
	return c
}

// Name implements Column.
func (c *FloatColumn) Name() string { return c.name }

// Type implements Column.
func (c *FloatColumn) Type() Type { return Float64 }

// Len implements Column.
func (c *FloatColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *FloatColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// NullCount implements Column.
func (c *FloatColumn) NullCount() int { return c.nulls.Count() }

// Append appends a non-null value.
func (c *FloatColumn) Append(v float64) {
	c.vals = append(c.vals, v)
	c.nulls.Resize(len(c.vals))
}

// AppendNull appends a missing value.
func (c *FloatColumn) AppendNull() {
	c.vals = append(c.vals, math.NaN())
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Value returns the raw value at row i (NaN when null).
func (c *FloatColumn) Value(i int) float64 {
	if c.nulls.Get(i) {
		return math.NaN()
	}
	return c.vals[i]
}

// Float implements Column.
func (c *FloatColumn) Float(i int) float64 { return c.Value(i) }

// StringAt implements Column.
func (c *FloatColumn) StringAt(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatFloat(c.vals[i], 'g', -1, 64)
}

// Gather implements Column.
func (c *FloatColumn) Gather(rows []int) Column { return gather(c, rows, nil, nil) }

// ---------------------------------------------------------------------------
// Int column

// IntColumn is a nullable vector of int64 values.
type IntColumn struct {
	name  string
	vals  []int64
	nulls *Bitmap
}

// NewIntColumn returns an empty integer column with the given name.
func NewIntColumn(name string) *IntColumn {
	return &IntColumn{name: name, nulls: NewBitmap(0)}
}

// NewIntColumnFrom builds an integer column from values.
func NewIntColumnFrom(name string, vals []int64) *IntColumn {
	c := NewIntColumn(name)
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// Name implements Column.
func (c *IntColumn) Name() string { return c.name }

// Type implements Column.
func (c *IntColumn) Type() Type { return Int64 }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *IntColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// NullCount implements Column.
func (c *IntColumn) NullCount() int { return c.nulls.Count() }

// Append appends a non-null value.
func (c *IntColumn) Append(v int64) {
	c.vals = append(c.vals, v)
	c.nulls.Resize(len(c.vals))
}

// AppendNull appends a missing value.
func (c *IntColumn) AppendNull() {
	c.vals = append(c.vals, 0)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Float implements Column.
func (c *IntColumn) Float(i int) float64 {
	if c.IsNull(i) {
		return math.NaN()
	}
	return float64(c.vals[i])
}

// StringAt implements Column.
func (c *IntColumn) StringAt(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatInt(c.vals[i], 10)
}

// Gather implements Column.
func (c *IntColumn) Gather(rows []int) Column { return gather(c, rows, nil, nil) }

// ---------------------------------------------------------------------------
// String column (dictionary encoded)

// StringColumn is a nullable, dictionary-encoded vector of strings.
type StringColumn struct {
	name  string
	codes []int32  // index into dict; -1 reserved unused (nulls via bitmap)
	dict  []string // each distinct value once
	// index is Append's value -> code cache, built from dict on its
	// first use. A column a table holds keeps none (Table.AddColumn
	// drops it).
	index map[string]int32
	// lookup is the string predicates' value -> code map (kernel.go),
	// built by the first one compiled over the column.
	lookup valueIndex
	nulls  *Bitmap
}

// NewStringColumn returns an empty string column with the given name.
func NewStringColumn(name string) *StringColumn {
	return &StringColumn{name: name, nulls: NewBitmap(0)}
}

// newStringColumnCap is NewStringColumn with room for n rows (the
// dictionary still grows with the distinct values met).
func newStringColumnCap(name string, n int) *StringColumn {
	return &StringColumn{name: name, codes: make([]int32, 0, n), nulls: newBitmapCap(n)}
}

// NewStringColumnFrom builds a string column from values ("" stays a value,
// not a null; use AppendNull for missing data).
func NewStringColumnFrom(name string, vals []string) *StringColumn {
	c := NewStringColumn(name)
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// Name implements Column.
func (c *StringColumn) Name() string { return c.name }

// Type implements Column.
func (c *StringColumn) Type() Type { return String }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// NullCount implements Column.
func (c *StringColumn) NullCount() int { return c.nulls.Count() }

// cache returns Append's value -> code cache, built from dict on its
// first use.
func (c *StringColumn) cache() map[string]int32 {
	if c.index == nil {
		c.index = make(map[string]int32, len(c.dict))
		for code, d := range c.dict {
			c.index[d] = int32(code)
		}
	}
	return c.index
}

// Append appends a non-null value.
func (c *StringColumn) Append(v string) {
	index := c.cache()
	code, ok := index[v]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, v)
		index[v] = code
		c.lookup.drop()
	}
	c.codes = append(c.codes, code)
	c.nulls.Resize(len(c.codes))
}

// AppendNull appends a missing value.
func (c *StringColumn) AppendNull() {
	c.codes = append(c.codes, 0)
	c.nulls.Resize(len(c.codes))
	c.nulls.Set(len(c.codes) - 1)
}

// Value returns the string at row i ("" when null; check IsNull).
func (c *StringColumn) Value(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return c.dict[c.codes[i]]
}

// Code returns the dictionary code at row i (-1 when null).
func (c *StringColumn) Code(i int) int32 {
	if c.IsNull(i) {
		return -1
	}
	return c.codes[i]
}

// Dict returns the dictionary of distinct values seen so far.
func (c *StringColumn) Dict() []string { return c.dict }

// Cardinality returns the number of distinct non-null values.
func (c *StringColumn) Cardinality() int { return len(c.dict) }

// Float implements Column: strings parse as numbers when possible, else NaN.
func (c *StringColumn) Float(i int) float64 {
	if c.IsNull(i) {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(c.Value(i), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// StringAt implements Column.
func (c *StringColumn) StringAt(i int) string { return c.Value(i) }

// Gather implements Column.
func (c *StringColumn) Gather(rows []int) Column { return gather(c, rows, nil, nil) }

// ---------------------------------------------------------------------------
// Bool column

// BoolColumn is a nullable vector of booleans.
type BoolColumn struct {
	name  string
	vals  *Bitmap
	nulls *Bitmap
	n     int
}

// NewBoolColumn returns an empty boolean column with the given name.
func NewBoolColumn(name string) *BoolColumn {
	return &BoolColumn{name: name, vals: NewBitmap(0), nulls: NewBitmap(0)}
}

// newBoolColumnCap is NewBoolColumn with room for n rows.
func newBoolColumnCap(name string, n int) *BoolColumn {
	return &BoolColumn{name: name, vals: newBitmapCap(n), nulls: newBitmapCap(n)}
}

// NewBoolColumnFrom builds a boolean column from values.
func NewBoolColumnFrom(name string, vals []bool) *BoolColumn {
	c := NewBoolColumn(name)
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// Name implements Column.
func (c *BoolColumn) Name() string { return c.name }

// Type implements Column.
func (c *BoolColumn) Type() Type { return Bool }

// Len implements Column.
func (c *BoolColumn) Len() int { return c.n }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// NullCount implements Column.
func (c *BoolColumn) NullCount() int { return c.nulls.Count() }

// Append appends a non-null value.
func (c *BoolColumn) Append(v bool) {
	c.n++
	c.vals.Resize(c.n)
	c.nulls.Resize(c.n)
	if v {
		c.vals.Set(c.n - 1)
	}
}

// AppendNull appends a missing value.
func (c *BoolColumn) AppendNull() {
	c.n++
	c.vals.Resize(c.n)
	c.nulls.Resize(c.n)
	c.nulls.Set(c.n - 1)
}

// Float implements Column.
func (c *BoolColumn) Float(i int) float64 {
	if c.IsNull(i) {
		return math.NaN()
	}
	if c.vals.Get(i) {
		return 1
	}
	return 0
}

// StringAt implements Column.
func (c *BoolColumn) StringAt(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatBool(c.vals.Get(i))
}

// Gather implements Column.
func (c *BoolColumn) Gather(rows []int) Column { return gather(c, rows, nil, nil) }
