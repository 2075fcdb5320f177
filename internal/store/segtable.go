package store

import (
	"fmt"
	"strings"

	"repro/internal/store/segment"
)

// SegmentTable is a Relation backed by an on-disk paged columnar
// segment (see internal/store/segment) instead of in-memory slices.
// Pages are fetched through the segment's buffer pool on demand, so a
// dataset far larger than memory opens in O(footer) space and the
// resident set is bounded by the pool's byte budget.
//
// SegmentTables are read-only and safe for concurrent readers. Scans
// (Filter, Gather of sorted rows) touch pages sequentially; point
// accesses via the Column interface work but pay a pool round trip
// per row, so hot paths should go through Filter / ScanRows /
// Route / StatsRows / RowFloats / Gather, which fetch a page once
// per run of rows on it.
type SegmentTable struct {
	columnSet
	seg *segment.Segment
}

// OpenSegmentTableWith opens a segment file against the given buffer
// pool; several datasets can split one byte budget by sharing a pool.
func OpenSegmentTableWith(path string, pool *segment.Pool) (*SegmentTable, error) {
	seg, err := segment.Open(path, pool)
	if err != nil {
		return nil, err
	}
	t, err := newSegmentTable(seg, path)
	if err != nil {
		seg.Close()
		return nil, err
	}
	return t, nil
}

func newSegmentTable(seg *segment.Segment, path string) (*SegmentTable, error) {
	f := seg.Footer()
	if int64(int(f.NumRows)) != f.NumRows {
		return nil, fmt.Errorf("store: segment %s: %d rows exceed the addressable range", path, f.NumRows)
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".seg")
	t := &SegmentTable{seg: seg, columnSet: columnSet{
		name:    name,
		colIdx:  make(map[string]int, len(f.Cols)),
		numRows: int(f.NumRows),
	}}
	for ci := range f.Cols {
		meta := &f.Cols[ci]
		col := &segCol{seg: seg, ci: ci, meta: meta, rpp: f.RowsPerPage, n: t.numRows}
		switch meta.Kind {
		case segment.KindFloat64:
			col.typ = Float64
		case segment.KindInt64:
			col.typ = Int64
		case segment.KindBool:
			col.typ = Bool
		case segment.KindString:
			col.typ = String
			var err error
			if col.dict, err = seg.Dict(ci); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("store: segment %s: column %q has unsupported kind", path, meta.Name)
		}
		t.colIdx[meta.Name] = ci
		t.cols = append(t.cols, col)
	}
	if len(t.cols) > 0 {
		t.pageRows = f.RowsPerPage
	}
	return t, nil
}

// Close releases the segment file and its pooled pages.
func (t *SegmentTable) Close() error { return t.seg.Close() }

// Segment exposes the underlying segment (pool stats, page layout).
func (t *SegmentTable) Segment() *segment.Segment { return t.seg }

// PoolStats snapshots the buffer pool backing the segment (zero when
// the segment is memory-mapped without a pool). The session tier
// asserts for this method to charge page reads to build traces.
func (t *SegmentTable) PoolStats() segment.PoolStats {
	if p := t.seg.Pool(); p != nil {
		return p.Stats()
	}
	return segment.PoolStats{}
}

// ---------------------------------------------------------------------------
// Segment-backed columns

// segCol is the one segment-backed Column: a page directory plus, for
// strings, the dictionary. typ selects how a page slot decodes. Every
// read goes through the typed reader (kernel.go), which fetches its
// pages and reads their zone maps: a Gather of sorted rows fetches each
// page once, and a point read reads its one row.
type segCol struct {
	seg  *segment.Segment
	ci   int
	meta *segment.ColumnMeta
	rpp  int
	n    int
	typ  Type
	dict []string // String only: distinct values by code
	// lookup is the string predicates' value -> code map (kernel.go),
	// built by the first one compiled over the column.
	lookup valueIndex
}

func (c *segCol) Name() string   { return c.meta.Name }
func (c *segCol) Type() Type     { return c.typ }
func (c *segCol) Len() int       { return c.n }
func (c *segCol) NullCount() int { return c.meta.NullCount() }

// fetch returns the data and null payloads of page pi (nulls is nil
// when the page has none). Both handles, values that carry their
// pages' bytes, are released before returning: the slices stay valid
// (see segment.Handle) and the pages simply become evictable again, so
// readers can hold the bytes without pinning pool budget. On the mmap
// path a fetch allocates nothing, hit or miss.
func (c *segCol) fetch(pi int) (data, nulls []byte) {
	h, err := c.seg.DataPage(c.ci, pi)
	if err != nil {
		panic(fmt.Sprintf("store: segment column %q page %d: %v", c.meta.Name, pi, err))
	}
	data = h.Bytes()
	h.Release()
	nh, err := c.seg.NullPage(c.ci, pi)
	if err != nil {
		panic(fmt.Sprintf("store: segment column %q null page %d: %v", c.meta.Name, pi, err))
	}
	nulls = nh.Bytes()
	nh.Release()
	return data, nulls
}

// row gathers row i alone: a page fetch a call.
func (c *segCol) row(i int) Column { return gather(c, []int{i}, nil, nil) }

// point reads row i through the typed reader: its value as loadFloats
// decodes it (a string's dictionary code), and whether it holds one.
func (c *segCol) point(i int) (v float64, ok bool) {
	rd, _ := bindCol(c)
	page, run, sel := i/c.rpp, []int{i}, routeIdentity[:1]
	var present [1]uint8
	var val [1]float64
	rd.notNull(page, run, sel, present[:])
	if present[0] == 0 {
		return 0, false
	}
	rd.loadFloats(page, run, sel, val[:])
	return val[0], true
}

// IsNull implements Column; a page with no null is answered from the
// page directory.
func (c *segCol) IsNull(i int) bool {
	if c.meta.Pages[i/c.rpp].NullCount == 0 {
		return false
	}
	_, ok := c.point(i)
	return !ok
}

// Code returns the dictionary code at row i of a string column (-1
// when null), mirroring StringColumn.Code. Both backings assign codes
// in first-appearance order over the same row sequence, so codes agree
// across them — the discretization layer relies on that for
// backing-independent NMI.
func (c *segCol) Code(i int) int32 {
	if v, ok := c.point(i); ok {
		return int32(v)
	}
	return -1
}

// Float implements Column.
func (c *segCol) Float(i int) float64 { return c.row(i).Float(0) }

// StringAt implements Column.
func (c *segCol) StringAt(i int) string { return c.row(i).StringAt(0) }

// Gather implements Column: the result is the in-memory column type
// of the same kind.
func (c *segCol) Gather(rows []int) Column { return gather(c, rows, nil, nil) }

// rangeRows returns the rows [lo, hi), ascending: a range as a gather's
// row list.
func rangeRows(lo, hi int) []int {
	if hi < lo {
		hi = lo
	}
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	return rows
}
