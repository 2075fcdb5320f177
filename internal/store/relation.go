package store

// Relation is a named, read-only collection of equal-length columns —
// the seam between the in-memory *Table and the out-of-core
// SegmentTable. Everything above the store (core.Explorer, the
// dependency graph, sessions, the server) works in terms of Relation,
// so a dataset can be backed by Go slices or by paged segments on disk
// without the exploration pipeline noticing.
//
// Gather materializes its result as an in-memory *Table: Blaeu's
// pipeline always narrows to a sample or a region before doing
// per-value work, so materialized results are small even when the
// backing relation is not.
type Relation interface {
	// Name returns the relation name.
	Name() string
	// NumRows returns the number of rows.
	NumRows() int
	// NumCols returns the number of columns.
	NumCols() int
	// Column returns the i-th column.
	Column(i int) Column
	// ColumnByName returns the named column, or nil if absent.
	ColumnByName(name string) Column
	// ColumnIndex returns the position of the named column, or -1.
	ColumnIndex(name string) int
	// ColumnNames returns the column names in schema order.
	ColumnNames() []string
	// Schema returns the relation schema.
	Schema() Schema
	// Gather returns a new materialized table containing the given rows
	// in order.
	Gather(rows []int) *Table
	// Filter returns the indices of rows matching the predicate, in
	// ascending order.
	Filter(p Predicate) []int
	// Row renders row i as strings in schema order (nulls render "").
	Row(i int) []string
}

var (
	_ Relation = (*Table)(nil)
	_ Relation = (*SegmentTable)(nil)
)

// columnSet is the Relation both backings embed: a named, ordered set
// of equal-length columns. Every method reaches the data through the
// Column interface only, so *Table (slices) and *SegmentTable (paged
// segment columns) share one implementation and differ in how their
// columns are built and released.
type columnSet struct {
	name    string
	cols    []Column
	colIdx  map[string]int
	numRows int
	// pageRows is the backing's native page size, the scan counters'
	// page; 0 (in-memory tables) means defaultScanPageRows.
	pageRows int
	// scanMetrics, when attached, receives the relation's scan counters
	// (see SetScanMetrics).
	scanMetrics *ScanMetrics
}

func (t *columnSet) columns() *columnSet { return t }

// SetScanMetrics attaches the scan-path counters; subsequent scans
// (Filter, FilterLimit, ScanRows) report their page counts through
// them. Attach before the relation is scanned concurrently.
func (t *columnSet) SetScanMetrics(m *ScanMetrics) { t.scanMetrics = m }

// Name returns the relation name.
func (t *columnSet) Name() string { return t.name }

// SetName renames the relation.
func (t *columnSet) SetName(name string) { t.name = name }

// NumRows returns the number of rows.
func (t *columnSet) NumRows() int { return t.numRows }

// NumCols returns the number of columns.
func (t *columnSet) NumCols() int { return len(t.cols) }

// Column returns the i-th column.
func (t *columnSet) Column(i int) Column { return t.cols[i] }

// ColumnByName returns the named column, or nil if absent.
func (t *columnSet) ColumnByName(name string) Column {
	i, ok := t.colIdx[name]
	if !ok {
		return nil
	}
	return t.cols[i]
}

// ColumnIndex returns the position of the named column, or -1.
func (t *columnSet) ColumnIndex(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// ColumnNames returns the column names in schema order.
func (t *columnSet) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name()
	}
	return out
}

// Schema returns the relation schema.
func (t *columnSet) Schema() Schema {
	s := make(Schema, len(t.cols))
	for i, c := range t.cols {
		s[i] = Field{Name: c.Name(), Type: c.Type()}
	}
	return s
}

// Gather returns a new materialized table containing the given rows in
// order. On a segment backing, sorted row sets (samples, filter
// results) read each page once, sequentially.
func (t *columnSet) Gather(rows []int) *Table {
	out := NewTable(t.name)
	for _, c := range t.cols {
		out.MustAddColumn(c.Gather(rows))
	}
	if len(t.cols) == 0 {
		out.numRows = len(rows)
	}
	return out
}

// Head returns the first n rows (or fewer), materialized.
func (t *columnSet) Head(n int) *Table {
	if n > t.numRows {
		n = t.numRows
	}
	if n < 0 {
		n = 0
	}
	out := NewTable(t.name)
	rows := rangeRows(0, n)
	for _, c := range t.cols {
		out.MustAddColumn(c.Gather(rows))
	}
	if len(t.cols) == 0 {
		out.numRows = n
	}
	return out
}

// Filter returns the indices of rows matching the predicate, in order.
// It is the whole-relation scan (scan.go), the one-split case of Route:
// the predicate is compiled once into batch kernels (columns resolved,
// string constants mapped to dictionary codes, zone maps consulted per
// page on a segment backing), and the result is allocated once, as a
// list of its final size.
func (t *columnSet) Filter(p Predicate) []int {
	return scan(scanRouter(t, p, t.numRows), All(t.numRows), t.numRows).list(1)
}

// Row renders row i as strings in schema order (nulls render as "").
func (t *columnSet) Row(i int) []string {
	out := make([]string, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.StringAt(i)
	}
	return out
}
