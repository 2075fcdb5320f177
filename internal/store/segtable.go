package store

import (
	"fmt"
	"math"
	"strconv"
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
			col.index = make(map[string]int32, len(col.dict))
			for code, v := range col.dict {
				if _, dup := col.index[v]; !dup {
					col.index[v] = int32(code)
				}
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

// pageSkips collects page-exclusion tests from the top-level
// conjuncts of p: a page skips when the conjunct provably matches no
// row of it. Non-conjunctive shapes contribute no skip (they still
// evaluate row-wise).
func (t *columnSet) pageSkips(p Predicate) []func(pi int) bool {
	var out []func(int) bool
	switch p := p.(type) {
	case And:
		for _, q := range p {
			out = append(out, t.pageSkips(q)...)
		}
	case NumCmp:
		if skip := t.numCmpSkip(p); skip != nil {
			out = append(out, skip)
		}
	case StrEq:
		if skip := t.strEqSkip(p); skip != nil {
			out = append(out, skip)
		}
	case IsNull:
		if c, ok := t.ColumnByName(p.Col).(*segCol); ok {
			pages := c.meta.Pages
			if p.Not {
				out = append(out, func(pi int) bool { return pages[pi].NullCount == pages[pi].Rows })
			} else {
				out = append(out, func(pi int) bool { return pages[pi].NullCount == 0 })
			}
		}
	}
	return out
}

// numCmpSkip builds the zone-map test for a numeric comparison: page
// stats bound the non-null values, and comparisons never match nulls.
func (t *columnSet) numCmpSkip(p NumCmp) func(pi int) bool {
	c, ok := t.ColumnByName(p.Col).(*segCol)
	if !ok || c.typ == String {
		// String page stats are dictionary codes, unrelated to the
		// numeric parse NumCmp applies; no skip.
		return nil
	}
	if p.Op == Ne && c.typ == Float64 {
		// Page stats do not see NaN cells, and a NaN differs from every
		// value: min == max == val does not prove the page matchless.
		return nil
	}
	return numSkipFunc(c.meta.Pages, p.Op, p.Val)
}

func numSkipFunc(pages []segment.PageInfo, op CmpOp, val float64) func(pi int) bool {
	return func(pi int) bool {
		pg := &pages[pi]
		if pg.NullCount == pg.Rows {
			return true // all null: a comparison matches nothing
		}
		switch op {
		case Lt:
			return pg.Min >= val
		case Le:
			return pg.Min > val
		case Gt:
			return pg.Max <= val
		case Ge:
			return pg.Max < val
		case Eq:
			return val < pg.Min || val > pg.Max
		case Ne:
			return pg.Min == val && pg.Max == val
		}
		return false
	}
}

// strEqSkip builds the zone-map test for string equality: the constant
// resolves to a dictionary code once, and page stats bound the codes.
func (t *columnSet) strEqSkip(p StrEq) func(pi int) bool {
	c, ok := t.ColumnByName(p.Col).(*segCol)
	if !ok || c.typ != String {
		return nil
	}
	pages := c.meta.Pages
	code, present := c.index[p.Val]
	if !present {
		if p.Neq {
			// Matches every non-null row: only all-null pages skip.
			return func(pi int) bool { return pages[pi].NullCount == pages[pi].Rows }
		}
		return func(int) bool { return true }
	}
	want := float64(code)
	if p.Neq {
		return numSkipFunc(pages, Ne, want)
	}
	return numSkipFunc(pages, Eq, want)
}

// ---------------------------------------------------------------------------
// Segment-backed columns

// segCol is the one segment-backed Column: a page directory plus, for
// strings, the dictionary. typ selects how a page slot decodes; every
// access goes through a page cursor, so a Gather of sorted rows
// fetches each page once. The batch kernels (kernel.go) read its pages
// through fetch, and the scan planner reads its page directory.
type segCol struct {
	seg   *segment.Segment
	ci    int
	meta  *segment.ColumnMeta
	rpp   int
	n     int
	typ   Type
	dict  []string         // String only: distinct values by code
	index map[string]int32 // String only: value -> code
}

func (c *segCol) Name() string   { return c.meta.Name }
func (c *segCol) Type() Type     { return c.typ }
func (c *segCol) Len() int       { return c.n }
func (c *segCol) NullCount() int { return c.meta.NullCount() }

// AppendNull implements Column; segment columns are immutable.
func (c *segCol) AppendNull() {
	panic(fmt.Sprintf("store: segment column %q is immutable", c.meta.Name))
}

// fetch returns the data and null payloads of page pi (nulls is nil
// when the page has none). The pool handles are released before
// returning: the byte slices stay valid (see segment.Handle.Bytes) and
// the pages simply become evictable again, so cursors can hold the
// bytes without pinning pool budget.
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
	if nh != nil {
		nulls = nh.Bytes()
		nh.Release()
	}
	return data, nulls
}

// segCursor walks a column page by page; sequential access fetches
// each page once.
type segCursor struct {
	c           *segCol
	pi          int
	data, nulls []byte
}

func (c *segCol) cursor() segCursor { return segCursor{c: c, pi: -1} }

// seek positions the cursor on row i's page and returns the in-page
// offset.
//
//blaeu:hot
func (cur *segCursor) seek(i int) int {
	pi := i / cur.c.rpp
	if pi != cur.pi {
		//blaeu:nolint hotpath one page fetch amortized over the page's rows
		cur.data, cur.nulls = cur.c.fetch(pi)
		cur.pi = pi
	}
	return i - pi*cur.c.rpp
}

func (cur *segCursor) isNull(j int) bool {
	return cur.nulls != nil && segment.BitAt(cur.nulls, j)
}

// IsNull is the point-access null test (page fetch per call).
func (c *segCol) IsNull(i int) bool {
	pi := i / c.rpp
	if c.meta.Pages[pi].NullCount == 0 {
		return false
	}
	h, err := c.seg.NullPage(c.ci, pi)
	if err != nil {
		panic(fmt.Sprintf("store: segment column %q null page %d: %v", c.meta.Name, pi, err))
	}
	v := segment.BitAt(h.Bytes(), i-pi*c.rpp)
	h.Release()
	return v
}

// Code returns the dictionary code at row i of a string column (-1
// when null), mirroring StringColumn.Code. Both backings assign codes
// in first-appearance order over the same row sequence, so codes agree
// across them — the discretization layer relies on that for
// backing-independent NMI.
func (c *segCol) Code(i int) int32 {
	cur := c.cursor()
	j := cur.seek(i)
	if cur.isNull(j) {
		return -1
	}
	return segment.Int32At(cur.data, j)
}

// floatAt decodes non-null slot j of a page as Column.Float defines it:
// bools map to 0/1, strings parse as numbers when possible.
func (c *segCol) floatAt(data []byte, j int) float64 {
	switch c.typ {
	case Float64:
		return segment.Float64At(data, j)
	case Int64:
		return float64(segment.Int64At(data, j))
	case Bool:
		if segment.BitAt(data, j) {
			return 1
		}
		return 0
	}
	v, err := strconv.ParseFloat(c.dict[segment.Int32At(data, j)], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Float implements Column.
func (c *segCol) Float(i int) float64 {
	cur := c.cursor()
	j := cur.seek(i)
	if cur.isNull(j) {
		return math.NaN()
	}
	return c.floatAt(cur.data, j)
}

// StringAt implements Column.
func (c *segCol) StringAt(i int) string {
	cur := c.cursor()
	j := cur.seek(i)
	if cur.isNull(j) {
		return ""
	}
	switch c.typ {
	case Float64:
		return strconv.FormatFloat(segment.Float64At(cur.data, j), 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(segment.Int64At(cur.data, j), 10)
	case Bool:
		return strconv.FormatBool(segment.BitAt(cur.data, j))
	}
	return c.dict[segment.Int32At(cur.data, j)]
}

// Gather implements Column: the result is the in-memory column type
// of the same kind.
func (c *segCol) Gather(rows []int) Column {
	name := c.meta.Name
	switch c.typ {
	case Float64:
		return gatherSeg(c, rows, newFloatColumnCap(name, len(rows)), segment.Float64At)
	case Int64:
		return gatherSeg(c, rows, newIntColumnCap(name, len(rows)), segment.Int64At)
	case Bool:
		return gatherSeg(c, rows, newBoolColumnCap(name, len(rows)), segment.BitAt)
	}
	return gatherSeg(c, rows, newStringColumnCap(name, len(rows)), func(data []byte, j int) string {
		return c.dict[segment.Int32At(data, j)]
	})
}

// gatherSeg appends the given rows of c to out (reserved for them by
// the caller) through one page cursor, decoding non-null slots with at.
func gatherSeg[T any, C interface {
	Column
	Append(T)
}](c *segCol, rows []int, out C, at func(data []byte, j int) T) Column {
	cur := c.cursor()
	for _, r := range rows {
		j := cur.seek(r)
		if cur.isNull(j) {
			out.AppendNull()
		} else {
			out.Append(at(cur.data, j))
		}
	}
	return out
}

// Slice implements Column.
func (c *segCol) Slice(lo, hi int) Column { return c.Gather(rangeRows(lo, hi)) }

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
