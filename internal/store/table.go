package store

import (
	"fmt"
	"math/rand"
	"sort"
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
// column fixes the row count.
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

// ScanGather materializes the named columns of the given rows of r into
// an in-memory table — Gather with projection pushdown: only the
// requested columns are decoded, and on a segment backing an ascending
// row set reads each of their pages once, through the column's page
// cursor. workers is unused; it stays in the signature because the
// frozen click benchmark (bench/load) passes it.
func ScanGather(r Relation, rows []int, cols []string, workers int) (*Table, error) {
	out := NewTable(r.Name())
	for _, name := range cols {
		c := r.ColumnByName(name)
		if c == nil {
			return nil, fmt.Errorf("store: gather of %s: no column %q", r.Name(), name)
		}
		if err := out.AddColumn(c.Gather(rows)); err != nil {
			return nil, err
		}
	}
	if len(cols) == 0 {
		out.numRows = len(rows)
	}
	return out, nil
}

// SampleIndices draws up to k of the integers [0,n) uniformly without
// replacement, returned sorted ascending. When k >= n it returns all rows.
func SampleIndices(n, k int, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Floyd's algorithm: k iterations, no O(n) shuffle.
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
