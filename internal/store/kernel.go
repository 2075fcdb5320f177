package store

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// The typed column reader and its batch kernels: the one way the
// store's row-proportional work reads a column, and the store's only
// decoder of a segment page. Every consumer — the tree router
// (route.go) and the scan operators, its one-split case (scan.go), the
// statistics, key detection and value reads over a row set (stats.go)
// — cuts its RowSet into runs that share a page (RowSet.runs); a
// gather (gather: every Column.Gather, GatherInto, a segment column's
// Float and StringAt) cuts its rows, in any order, into runs on one
// page, and a segment column's null test and code read their row alone.
// Each fetches each needed column page once per run, and works on a
// run as a selection vector of uint16 offsets: values are decoded into
// a small scratch, or a gather's output, by one loader per column kind
// and backing, and predicates are evaluated on the scratch into one
// match byte per offset. A predicate node whose segment page the zone
// map excludes matches nothing on it and fetches nothing. No kernel
// makes an indirect call per row; a predicate or column implementation
// no kernel binds is evaluated row by row through its own
// Predicate.Matches, into the same match bytes.

const (
	// routeRun bounds a run, so selection vectors are uint16 offsets
	// into it and the per-depth scratch stays inside the L1/L2 caches.
	routeRun = 8192
	// kernelChunk is how many values a loader decodes at a time: the
	// scratch a comparison or an accumulator reads back is L1-resident.
	kernelChunk = 1024
	// readRun bounds the runs of the passes that read a set without
	// evaluating a predicate — statistics, value reads, a routing node's
	// collect — so the rows a range or bitmap decodes into, and the
	// values or bytes beside them, stay a few KB however large the set.
	readRun = 512
)

// routeIdentity is the selection vector of a whole run.
var routeIdentity = func() (id [routeRun]uint16) {
	for i := range id {
		id[i] = uint16(i)
	}
	return id
}()

// runScratch is the run-sized buffers of one pass over a row set: the
// rows a range or a bitmap decodes a run into (RowSet.runs), and a
// router's match bytes, leaf ids, per-depth selection vectors and
// decode chunk (evaluator.vals, at most kernelChunk values). A pass
// takes them from runScratchPool and gives them back when it returns,
// so routes, filters, scans and statistics reads of every session
// share them, and a warm pool serves a pass without allocating. Each
// buffer grows to the largest pass that used it.
type runScratch struct {
	ids     []int
	match   []uint8
	leafIDs []uint8
	sel     []uint16
	vals    []float64
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// takeRunScratch returns a scratch that is the caller's alone until it
// releases it.
func takeRunScratch() *runScratch { return runScratchPool.Get().(*runScratch) }

// release gives the scratch back to the pool; its buffers must no
// longer be read or written.
func (sc *runScratch) release() { runScratchPool.Put(sc) }

// resize returns buf at length n, on its own storage when it has room
// (keeping stale values), else on new storage.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// colReader is the storage one column is read from: the whole column
// of an in-memory table, or the current page of a segment column.
type colReader struct {
	col  Column
	kind Type

	floats []float64
	ints   []int64
	codes  []int32
	bits   []uint64
	nulls  []uint64 // nil when the column has no nulls

	dict  []string    // string columns: distinct values by code
	index *valueIndex // string columns: the column's value -> code map

	seg             *segCol
	rpp, pi         int    // rpp is the page size (0 in memory: runs are cut by length only)
	data, pageNulls []byte // pageNulls is nil when the page has no nulls
}

// valueIndex is a dictionary's value -> code map for the string
// predicates compiled over its column. The first compile that needs it
// builds it, and it is kept: a column no string predicate names holds
// none, and one a click filters on pays the build once. A value that
// repeats in a dictionary maps to its first code. Safe for concurrent
// use.
type valueIndex struct {
	m atomic.Pointer[map[string]int32]
}

// of returns the map over dict, building it on the first call.
func (x *valueIndex) of(dict []string) map[string]int32 {
	if m := x.m.Load(); m != nil {
		return *m
	}
	m := make(map[string]int32, len(dict))
	for code, v := range dict {
		if _, dup := m[v]; !dup {
			m[v] = int32(code)
		}
	}
	x.m.CompareAndSwap(nil, &m) // a racing build made the same map
	return m
}

// drop forgets the map of a dictionary that grew.
func (x *valueIndex) drop() {
	if x.m.Load() != nil {
		x.m.Store(nil)
	}
}

// bindCol resolves the storage of c; it reports false for a column
// implementation the kernels cannot read.
func bindCol(c Column) (colReader, bool) {
	rd := colReader{col: c, kind: c.Type(), pi: -1}
	var nulls *Bitmap
	switch c := c.(type) {
	case *FloatColumn:
		rd.floats, nulls = c.vals, c.nulls
	case *IntColumn:
		rd.ints, nulls = c.vals, c.nulls
	case *BoolColumn:
		rd.bits, nulls = c.vals.words, c.nulls
	case *StringColumn:
		rd.codes, rd.dict, rd.index, nulls = c.codes, c.dict, &c.lookup, c.nulls
	case *segCol:
		rd.seg, rd.rpp, rd.dict, rd.index = c, c.rpp, c.dict, &c.lookup
	default:
		return rd, false
	}
	if nulls.Any() {
		rd.nulls = nulls.words
	}
	return rd, true
}

// seek makes page the current page of a segment column and returns its
// first row (0 in memory).
func (c *colReader) seek(page int) int {
	if c.seg != nil && c.pi != page {
		c.data, c.pageNulls = c.seg.fetch(page)
		c.pi = page
	}
	return page * c.rpp
}

// loadFloats decodes the rows of run (all on page) at the offsets sel
// into dst: a non-null numeric or bool value as Column.Float reads it,
// a string as its dictionary code. What a null row decodes to is
// unspecified.
func (c *colReader) loadFloats(page int, run []int, sel []uint16, dst []float64) {
	base := c.seek(page)
	switch {
	case c.seg == nil && c.kind == Float64:
		loadNum(c.floats, run, sel, dst)
	case c.seg == nil && c.kind == Int64:
		loadNum(c.ints, run, sel, dst)
	case c.seg == nil && c.kind == String:
		loadNum(c.codes, run, sel, dst)
	case c.seg == nil:
		loadBits(c.bits, run, sel, dst)
	case c.kind == Float64:
		loadFloatPage(c.data, base, run, sel, dst)
	case c.kind == Int64:
		loadIntPage(c.data, base, run, sel, dst)
	case c.kind == String:
		loadCodesPage(c.data, base, run, sel, dst)
	default:
		loadBitsPage(c.data, base, run, sel, dst)
	}
}

// loadInts is loadFloats for an Int64 column, decoding its values
// exactly.
func (c *colReader) loadInts(page int, run []int, sel []uint16, dst []int64) {
	base := c.seek(page)
	if c.seg == nil {
		loadNum(c.ints, run, sel, dst)
	} else {
		loadInt64Page(c.data, base, run, sel, dst)
	}
}

// clearNulls zeroes the byte of m at every offset of sel whose row is
// null.
func (c *colReader) clearNulls(page int, run []int, sel []uint16, m []uint8) {
	base := c.seek(page)
	switch {
	case c.nulls != nil:
		clearNulls(c.nulls, run, sel, m)
	case c.pageNulls != nil:
		clearNullsPage(c.pageNulls, base, run, sel, m)
	}
}

// notNull sets m[k] to whether the row at sel[k] holds a value.
func (c *colReader) notNull(page int, run []int, sel []uint16, m []uint8) {
	fillBytes(m, 1)
	c.clearNulls(page, run, sel, m)
}

// gather returns the given rows of c, in order, as a new in-memory
// column of its kind; a Float64 column is written into fl, refilled on
// buf (see FloatColumn.refill), when fl is not nil. The rows may come
// in any order and repeat: a run ends at readRun rows or at the first
// row off its page, so an ascending gather fetches each page once.
// Values decode through the typed loaders (an Int64 exactly), nulls
// from notNull's bytes, and a string column's dictionary is rebuilt in
// the rows' first-appearance order, as Append builds one. The run
// buffers live on the stack, so a gather allocates only the column it
// returns. A foreign Column implementation gathers itself.
func gather(c Column, rows []int, fl *FloatColumn, buf []float64) Column {
	rd, ok := bindCol(c)
	if !ok {
		return c.Gather(rows)
	}
	n := len(rows)
	var out Column
	switch rd.kind {
	case Float64:
		if fl == nil {
			fl = new(FloatColumn)
		}
		fl.refill(c.Name(), buf, n)
		out = fl
	case Int64:
		out = &IntColumn{name: c.Name(), vals: make([]int64, n), nulls: new(Bitmap)}
	case Bool:
		out = newBoolColumnCap(c.Name(), n)
	default:
		out = newStringColumnCap(c.Name(), n)
	}
	// A run's present bytes, and its bool values or codes.
	var presentBuf [readRun]uint8
	var vals [readRun]float64
	for lo := 0; lo < n; {
		page, hi := 0, min(n, lo+readRun)
		if rd.rpp > 0 {
			page = rows[lo] / rd.rpp
			for j := lo + 1; j < hi; j++ {
				if uint(rows[j]-page*rd.rpp) >= uint(rd.rpp) {
					hi = j
					break
				}
			}
		}
		run, sel, present := rows[lo:hi], routeIdentity[:hi-lo], presentBuf[:hi-lo]
		rd.notNull(page, run, sel, present)
		switch out := out.(type) {
		case *FloatColumn:
			rd.loadFloats(page, run, sel, out.vals[lo:hi])
			for k := nextNull(present, 0); k < len(present); k = nextNull(present, k+1) {
				out.vals[lo+k] = math.NaN()
				out.nulls.setCovering(n, lo+k)
			}
		case *IntColumn:
			rd.loadInts(page, run, sel, out.vals[lo:hi])
			for k := nextNull(present, 0); k < len(present); k = nextNull(present, k+1) {
				out.vals[lo+k] = 0
				out.nulls.setCovering(n, lo+k)
			}
		case *BoolColumn:
			rd.loadFloats(page, run, sel, vals[:])
			for k, p := range present {
				if p == 0 {
					out.AppendNull()
				} else {
					out.Append(vals[k] != 0)
				}
			}
		case *StringColumn:
			rd.loadFloats(page, run, sel, vals[:])
			for k, p := range present {
				if p == 0 {
					out.AppendNull()
				} else {
					out.Append(rd.dict[int32(vals[k])])
				}
			}
		}
		lo = hi
	}
	return out
}

// nextNull returns the first offset from k on whose present byte is 0,
// or len(present) if there is none.
func nextNull(present []uint8, k int) int {
	if i := bytes.IndexByte(present[k:], 0); i >= 0 {
		return k + i
	}
	return len(present)
}

// predKind selects how a compiled predicate node is evaluated.
type predKind uint8

const (
	predMatcher predKind = iota // anything no kernel binds, row by row through Predicate.Matches
	predAll                     // every row
	predNum                     // NumCmp over float64, int64 or bool values; StrEq over dictionary codes
	predCodeIn                  // a set of dictionary codes: StrIn, NumCmp over a string column
	predNull                    // IsNull (neg: IS NOT NULL)
	predAnd
	predOr
	predNot
	predOrNull
)

// predNode is the compiled form of one predicate node.
type predNode struct {
	kind  predKind
	neg   bool             // predNull
	op    CmpOp            // predNum
	val   float64          // predNum
	col   int              // index into evaluator.cols (typed kinds, predOrNull)
	in    []bool           // predCodeIn: by code
	match func(i int) bool // predMatcher
	subs  []predNode
	m     []uint8  // predOr, predOrNull: the match bytes of one operand
	sel   []uint16 // predAnd: the offsets still matching, then their positions
	// zone is set on the nodes a segment page's zone map can exclude: a
	// comparison or null test over a segment column, but not x <> v
	// over a float column (page stats cannot see a NaN cell, which
	// differs from every value), and an And with such a conjunct.
	zone bool
}

// evaluator compiles predicates over one relation and evaluates them
// on runs. Every node on the same column shares one colReader, so a
// segment page is fetched once per run. Not safe for concurrent use:
// the readers are page cursors.
type evaluator struct {
	cols []colReader
	// rpp is the segment page size (0: in-memory); page and run are the
	// run being evaluated; runCap bounds a run's length.
	rpp, page, runCap int
	run               []int
	// vals is the decode scratch, a chunk of values: the run scratch's,
	// set for the duration of a router's pass (every evaluator is a
	// router's), since only a pass evaluates.
	vals []float64
}

// bind points at the shared reader of c.
func (ev *evaluator) bind(c Column) (int, bool) {
	for i := range ev.cols {
		if ev.cols[i].col == c {
			return i, true
		}
	}
	rd, ok := bindCol(c)
	if !ok {
		return 0, false
	}
	ev.rpp = rd.rpp
	ev.cols = append(ev.cols, rd)
	return len(ev.cols) - 1, true
}

// compile resolves p over r: every shape over the column types both
// backings store gets a kernel, the rest — a leaf on a missing column,
// which matches nothing, among them — its own Matches.
func (ev *evaluator) compile(r Relation, p Predicate) predNode {
	// leaf binds a leaf's column: ok if it exists and kernels read it,
	// str if they read it as dictionary codes.
	leaf := func(name string) (col int, str, ok bool) {
		if c := r.ColumnByName(name); c != nil {
			col, ok = ev.bind(c)
			str = c.Type() == String
		}
		return col, str, ok
	}
	switch p := p.(type) {
	case nil, True:
		return predNode{kind: predAll}
	case NumCmp:
		col, str, ok := leaf(p.Col)
		if ok && !str {
			zone := ev.cols[col].seg != nil && (p.Op != Ne || ev.cols[col].kind != Float64)
			return predNode{kind: predNum, col: col, op: p.Op, val: p.Val, zone: zone}
		}
		if ok {
			// Each dictionary entry parses once; unparseable ones are NaN,
			// as under Column.Float.
			in := make([]bool, len(ev.cols[col].dict))
			for code, v := range ev.cols[col].dict {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					f = math.NaN()
				}
				in[code] = p.Op.holds(f, p.Val)
			}
			return predNode{kind: predCodeIn, col: col, in: in}
		}
	case StrEq:
		if col, str, ok := leaf(p.Col); ok && str {
			// A comparison of codes; -1 is the code of no row.
			nd := predNode{kind: predNum, col: col, op: Eq, val: -1, zone: ev.cols[col].seg != nil}
			if p.Neq {
				nd.op = Ne
			}
			if code, ok := ev.cols[col].index.of(ev.cols[col].dict)[p.Val]; ok {
				nd.val = float64(code)
			}
			return nd
		}
	case StrIn:
		if col, str, ok := leaf(p.Col); ok && str {
			index := ev.cols[col].index.of(ev.cols[col].dict)
			in := make([]bool, len(ev.cols[col].dict))
			for _, v := range p.Vals {
				if code, ok := index[v]; ok {
					in[code] = true
				}
			}
			return predNode{kind: predCodeIn, col: col, in: in}
		}
	case IsNull:
		if col, _, ok := leaf(p.Col); ok {
			return predNode{kind: predNull, col: col, neg: p.Not, zone: ev.cols[col].seg != nil}
		}
	case And:
		nd := predNode{kind: predAnd, subs: ev.compileAll(r, p), sel: make([]uint16, 2*ev.runCap)}
		for i := range nd.subs {
			nd.zone = nd.zone || nd.subs[i].zone
		}
		return nd
	case Or:
		return predNode{kind: predOr, subs: ev.compileAll(r, p), m: make([]uint8, ev.runCap)}
	case Not:
		return predNode{kind: predNot, subs: ev.compileAll(r, []Predicate{p.P})}
	case OrNull:
		if col, _, ok := leaf(p.Col); ok {
			return predNode{kind: predOrNull, col: col, subs: ev.compileAll(r, []Predicate{p.P}), m: make([]uint8, ev.runCap)}
		}
	}
	return predNode{kind: predMatcher, match: func(i int) bool { return p.Matches(r, i) }}
}

func (ev *evaluator) compileAll(r Relation, ps []Predicate) []predNode {
	subs := make([]predNode, len(ps))
	for i, p := range ps {
		subs[i] = ev.compile(r, p)
	}
	return subs
}

// excluded reports whether the zone map of the current page proves
// that no row of it matches nd, a zone node, from the op and the value
// or code the node compares with: a segment page's min and max bound its
// non-null values (dictionary codes on a string page, so a string absent
// from the dictionary, code -1, lies below every page), and its null
// count tells a page that is all null or has none. An And is excluded
// when any conjunct is.
func (ev *evaluator) excluded(nd *predNode) bool {
	if nd.kind == predAnd {
		for i := range nd.subs {
			if sub := &nd.subs[i]; sub.zone && ev.excluded(sub) {
				return true
			}
		}
		return false
	}
	pg := &ev.cols[nd.col].seg.meta.Pages[ev.page]
	switch {
	case nd.kind == predNull:
		return nd.neg && pg.NullCount == pg.Rows || !nd.neg && pg.NullCount == 0
	case pg.NullCount == pg.Rows:
		return true // a comparison matches no null
	case nd.op == Lt:
		return pg.Min >= nd.val
	case nd.op == Le:
		return pg.Min > nd.val
	case nd.op == Gt:
		return pg.Max <= nd.val
	case nd.op == Ge:
		return pg.Max < nd.val
	case nd.op == Eq:
		return nd.val < pg.Min || nd.val > pg.Max
	case nd.op == Ne:
		return pg.Min == nd.val && pg.Max == nd.val
	}
	return false
}

// eval sets m[k] to whether the row at offset sel[k] of the current run
// matches nd, as 0 or 1. Comparisons are evaluated on every selected
// row and the nulls cleared from the outcome afterwards, so nulls fail
// every comparison whatever their slot decodes to. A node the zone map
// excludes matches no row and fetches no page; an And tests every
// conjunct's zone map before it loads anything.
func (ev *evaluator) eval(nd *predNode, sel []uint16, m []uint8) {
	if nd.zone && ev.excluded(nd) {
		fillBytes(m[:len(sel)], 0)
		return
	}
	switch nd.kind {
	case predMatcher:
		evalMatcher(nd.match, ev.run, sel, m)
	case predAll:
		fillBytes(m, 1)
	case predNum, predCodeIn:
		c := &ev.cols[nd.col]
		for lo := 0; lo < len(sel); lo += kernelChunk {
			part := sel[lo:min(lo+kernelChunk, len(sel))]
			vals := ev.vals[:len(part)]
			c.loadFloats(ev.page, ev.run, part, vals)
			if nd.kind == predNum {
				cmpVals(vals, m[lo:], nd.op, nd.val)
			} else {
				inCodes(vals, m[lo:], nd.in)
			}
		}
		c.clearNulls(ev.page, ev.run, sel, m)
	case predNull:
		ev.cols[nd.col].notNull(ev.page, ev.run, sel, m)
		if !nd.neg {
			flipBytes(m)
		}
	case predAnd:
		// A chained selection vector: each conjunct sees only the offsets
		// its predecessors kept (their match bytes pass through m), and
		// the positions in sel of those still kept travel with them.
		cur, pos := sel, routeIdentity[:len(sel)]
		for i := range nd.subs {
			ev.eval(&nd.subs[i], cur, m[:len(cur)])
			n := keepSel(cur, pos, m, nd.sel, nd.sel[ev.runCap:])
			cur, pos = nd.sel[:n], nd.sel[ev.runCap:][:n]
		}
		fillBytes(m, 0)
		setBytes(m, pos)
	case predOr:
		fillBytes(m, 0)
		for i := range nd.subs {
			ev.eval(&nd.subs[i], sel, nd.m[:len(sel)])
			orBytes(m, nd.m)
		}
	case predNot:
		ev.eval(&nd.subs[0], sel, m)
		flipBytes(m)
	case predOrNull:
		ev.eval(&nd.subs[0], sel, m)
		null := nd.m[:len(sel)]
		ev.cols[nd.col].notNull(ev.page, ev.run, sel, null)
		flipBytes(null)
		orBytes(m, null)
	}
}

// The kernels. A loader writes into dst[k] the value of the row at run
// offset sel[k]: the in-memory loaders index the whole column by row,
// the page loaders one little-endian segment page by row - base. A
// match kernel writes m[k] as 0 or 1 for every k of its first operand.

//blaeu:hot
func loadNum[T float64 | int64 | int32, D float64 | int64](vals []T, run []int, sel []uint16, dst []D) {
	dst = dst[:len(sel)]
	for k, s := range sel {
		dst[k] = D(vals[run[s]])
	}
}

//blaeu:hot
func loadBits(bits []uint64, run []int, sel []uint16, dst []float64) {
	for k, s := range sel {
		i := run[s]
		dst[k] = float64(bits[i>>6] >> (uint(i) & 63) & 1)
	}
}

//blaeu:hot
func loadFloatPage(data []byte, base int, run []int, sel []uint16, dst []float64) {
	dst = dst[:len(sel)]
	for k, s := range sel {
		dst[k] = math.Float64frombits(le64(data[(run[s]-base)*8:]))
	}
}

//blaeu:hot
func loadIntPage(data []byte, base int, run []int, sel []uint16, dst []float64) {
	dst = dst[:len(sel)]
	for k, s := range sel {
		dst[k] = float64(int64(le64(data[(run[s]-base)*8:])))
	}
}

//blaeu:hot
func loadInt64Page(data []byte, base int, run []int, sel []uint16, dst []int64) {
	dst = dst[:len(sel)]
	for k, s := range sel {
		dst[k] = int64(le64(data[(run[s]-base)*8:]))
	}
}

//blaeu:hot
func loadBitsPage(data []byte, base int, run []int, sel []uint16, dst []float64) {
	for k, s := range sel {
		j := run[s] - base
		dst[k] = float64(data[j>>3] >> (uint(j) & 7) & 1)
	}
}

//blaeu:hot
func loadCodesPage(data []byte, base int, run []int, sel []uint16, dst []float64) {
	dst = dst[:len(sel)]
	for k, s := range sel {
		b := data[(run[s]-base)*4:]
		_ = b[3]
		dst[k] = float64(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
	}
}

// clearNulls zeroes the match byte of every null row of an in-memory
// column.
//
//blaeu:hot
func clearNulls(nulls []uint64, run []int, sel []uint16, m []uint8) {
	for k, s := range sel {
		i := run[s]
		m[k] &^= uint8(nulls[i>>6] >> (uint(i) & 63) & 1)
	}
}

// clearNullsPage is clearNulls over a segment null-bitmap page
// (little-endian uint64 words, so bit j sits in byte j/8).
//
//blaeu:hot
func clearNullsPage(nulls []byte, base int, run []int, sel []uint16, m []uint8) {
	for k, s := range sel {
		j := run[s] - base
		m[k] &^= nulls[j>>3] >> (uint(j) & 7) & 1
	}
}

// cmpVals compares every value against val. One loop per operator:
// v >= val is not !(v < val) when v is NaN.
//
//blaeu:hot
func cmpVals(vals []float64, m []uint8, op CmpOp, val float64) {
	m = m[:len(vals)]
	switch op {
	case Lt:
		for k, v := range vals {
			m[k] = bit(v < val)
		}
	case Le:
		for k, v := range vals {
			m[k] = bit(v <= val)
		}
	case Gt:
		for k, v := range vals {
			m[k] = bit(v > val)
		}
	case Ge:
		for k, v := range vals {
			m[k] = bit(v >= val)
		}
	case Eq:
		for k, v := range vals {
			m[k] = bit(v == val)
		}
	case Ne:
		for k, v := range vals {
			m[k] = bit(v != val)
		}
	default:
		fillBytes(m[:len(vals)], 0)
	}
}

// inCodes matches the codes in the set; a null row's slot may hold any
// code, in the dictionary or not.
//
//blaeu:hot
func inCodes(codes []float64, m []uint8, in []bool) {
	for k, c := range codes {
		m[k] = bit(uint(c) < uint(len(in)) && in[uint(c)])
	}
}

//blaeu:hot
func evalMatcher(match func(i int) bool, run []int, sel []uint16, m []uint8) {
	for k, s := range sel {
		m[k] = bit(match(run[s]))
	}
}

// fillBytes sets every byte of m to b, doubling the filled prefix with
// each copy.
//
//blaeu:hot
func fillBytes(m []uint8, b uint8) {
	if len(m) == 0 {
		return
	}
	m[0] = b
	for k := 1; k < len(m); k *= 2 {
		copy(m[k:], m[:k])
	}
}

//blaeu:hot
func flipBytes(m []uint8) {
	for k := range m {
		m[k] ^= 1
	}
}

//blaeu:hot
func orBytes(m, other []uint8) {
	for k := range m {
		m[k] |= other[k]
	}
}

// keepSel writes the offsets of sel whose match byte is set, and their
// positions, to the front of out and outPos, in order, and returns how
// many; the outputs may be the inputs.
//
//blaeu:hot
func keepSel(sel, pos []uint16, m []uint8, out, outPos []uint16) int {
	n := 0
	for k, s := range sel {
		out[n], outPos[n] = s, pos[k]
		n += int(m[k])
	}
	return n
}

//blaeu:hot
func setBytes(m []uint8, pos []uint16) {
	for _, p := range pos {
		m[p] = 1
	}
}

// splitSel partitions sel by the match bytes: matching offsets to the
// front of out in order, the others to its back. Every offset is
// stored at both write ends and only one end advances, so the loop
// carries no data-dependent branch.
//
//blaeu:hot
func splitSel(sel []uint16, m []uint8, out []uint16) int {
	ny, nn := 0, len(out)-1
	for k, s := range sel {
		out[ny] = s
		out[nn] = s
		ny += int(m[k])
		nn -= int(m[k] ^ 1)
	}
	return ny
}

// fillSeq writes lo, lo+1, … into dst.
//
//blaeu:hot
func fillSeq(dst []int, lo int) {
	for k := range dst {
		dst[k] = lo + k
	}
}

// bit is b as 0 or 1.
//
//blaeu:hot
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// le64 decodes the little-endian uint64 at the head of b (one load
// after inlining).
//
//blaeu:hot
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
