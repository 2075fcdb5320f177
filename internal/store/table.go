package store

import (
	"fmt"
	"math/rand"
	"slices"
)

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is the ordered list of fields of a table.
type Schema []Field

// String renders the schema as "name TYPE, ...".
func (s Schema) String() string {
	out := ""
	for i, f := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %s", f.Name, f.Type)
	}
	return out
}

// Table is a named collection of equal-length in-memory columns.
type Table struct{ columnSet }

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table {
	return &Table{columnSet{name: name, colIdx: make(map[string]int)}}
}

// AddColumn appends a column. All columns must have equal length; the first
// column fixes the row count. A string column's Append cache is dropped:
// the table's reads never use it.
func (t *Table) AddColumn(c Column) error {
	if _, dup := t.colIdx[c.Name()]; dup {
		return fmt.Errorf("store: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.cols) > 0 && c.Len() != t.numRows {
		return fmt.Errorf("store: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.numRows)
	}
	if len(t.cols) == 0 {
		t.numRows = c.Len()
	}
	// Tested first: a column another table already holds (Project
	// shares them) has none, and is not written.
	if sc, ok := c.(*StringColumn); ok && sc.index != nil {
		sc.index = nil
	}
	t.colIdx[c.Name()] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// MustAddColumn is AddColumn that panics on error; for construction code
// where the schema is static.
func (t *Table) MustAddColumn(c Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// Project returns a new table with only the named columns, sharing column
// storage with the receiver (columns are immutable once built).
func (t *Table) Project(names ...string) (*Table, error) {
	out := NewTable(t.name)
	for _, n := range names {
		c := t.ColumnByName(n)
		if c == nil {
			return nil, fmt.Errorf("store: no column %q in table %q", n, t.name)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScanGather is GatherInto with no table or slab to reuse. workers is
// unused; it stays in the signature because the frozen click benchmark
// (bench/load) passes it.
func ScanGather(r Relation, rows []int, cols []string, workers int) (*Table, error) {
	t := new(Table)
	if _, err := GatherInto(t, r, rows, cols, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// GatherInto materializes the named columns of the given rows of r into
// dst, an in-memory table — Gather with projection pushdown: only the
// requested columns are decoded, through the typed reader (gather), and
// on a segment backing an ascending row set reads each of their pages
// once. dst is refilled, not rebuilt: its name index and column list
// are emptied and reused, and a Float64 column takes the header (and
// the null bitmap's words) of the float column dst held at its
// position, if any, so dst must own its columns: an empty table, or one
// only GatherInto filled. The values of the Float64 columns are written
// into slab, len(rows) a column in column order; a slab with too little
// room is replaced by one just large enough, and the slab written is
// returned. dst aliases it: a caller reusing dst or the slab must be
// done with the table first.
func GatherInto(dst *Table, r Relation, rows []int, cols []string, slab []float64) ([]float64, error) {
	need := 0
	for _, name := range cols {
		c := r.ColumnByName(name)
		if c == nil {
			return slab, fmt.Errorf("store: gather of %s: no column %q", r.Name(), name)
		}
		if c.Type() == Float64 {
			need += len(rows)
		}
	}
	if cap(slab) < need {
		slab = make([]float64, need)
	}
	// The column list's whole array: headers past its length, from a
	// wider gather, are reused too.
	old := dst.cols[:cap(dst.cols)]
	dst.name, dst.cols, dst.numRows = r.Name(), dst.cols[:0], 0
	if dst.colIdx == nil {
		dst.colIdx = make(map[string]int, len(cols))
	}
	clear(dst.colIdx)
	free := slab[:need]
	for i, name := range cols {
		c := r.ColumnByName(name)
		var out *FloatColumn
		var buf []float64
		if c.Type() == Float64 {
			if i < len(old) {
				out, _ = old[i].(*FloatColumn)
			}
			buf, free = free[:len(rows):len(rows)], free[len(rows):]
		}
		if err := dst.AddColumn(gather(c, rows, out, buf)); err != nil {
			return slab, err
		}
	}
	if len(cols) == 0 {
		dst.numRows = len(rows)
	}
	return slab, nil
}

// SampleIndices draws up to k of the integers [0,n) uniformly without
// replacement, returned sorted ascending. When k >= n it returns all rows.
func SampleIndices(n, k int, rng *rand.Rand) []int {
	out, _ := SampleIndicesInto(n, k, rng, nil, nil)
	return out
}

// SampleIndicesInto is SampleIndices in the caller's storage: the ids go
// into out's array and the draws' taken set, when it is a bitmap, into
// taken's; each is reallocated only when short, and both are returned
// for the next call. It makes SampleIndices' draws from rng, in order.
func SampleIndicesInto(n, k int, rng *rand.Rand, out []int, taken []uint64) ([]int, []uint64) {
	if k >= n {
		out = resize(out, n)
		for i := range out {
			out[i] = i
		}
		return out, taken
	}
	// Floyd's algorithm: k draws, no O(n) shuffle. Draw j picks v in
	// [0, j], or j itself when v is taken. The taken set is a bitmap over
	// [0, n) while that costs at most four words a draw, no more than a
	// map entry; else it is the result itself, kept sorted: j exceeds
	// every earlier pick, so taking it is an append, and a fresh v is one
	// insertion (k²/4 moves in all, at most, where k < n/256).
	out = resize(out, k)
	if words := bitmapWords(n); words <= 4*k {
		taken = resize(taken, words)
		clear(taken)
		for j := n - k; j < n; j++ {
			v := rng.Intn(j + 1)
			if taken[v>>6]>>(v&63)&1 != 0 {
				v = j
			}
			taken[v>>6] |= 1 << (v & 63)
		}
		decodeBits(out, taken, 0, n, 0, taken[0])
		return out, taken
	}
	out = out[:0]
	for j := n - k; j < n; j++ {
		v := rng.Intn(j + 1)
		if at, found := slices.BinarySearch(out, v); found {
			out = append(out, j)
		} else {
			out = slices.Insert(out, at, v)
		}
	}
	return out, taken
}
