package store

import "math"

// Tree routing: a selection is pushed through a whole tree of split
// predicates in one pass over its pages. This is stage 5 of the
// paper's Fig. 3 pipeline (the description tree applied to the full
// selection) and, with a single split, CART's own partition step; it
// is the only part of a click whose cost grows with the table, so the
// unit of work is the page, not the row: the selection is cut into
// runs of rows that share a page, each run descends the tree as a
// selection vector through typed batch kernels that read the page
// slice directly, and each needed column page is fetched once per
// build. The first pass only records a one-byte leaf id per row and a
// count per node; a second, memory-only pass fills row lists that were
// allocated at their final size.

// SplitNode is one node of a SplitTree.
type SplitNode struct {
	// Split routes the rows it matches to the yes-child, which is the
	// next node; rows failing it (nulls fail every split) go to the
	// no-child. Nil marks a leaf.
	Split Predicate
	// No is the offset from this node to its no-child.
	No int
}

// SplitTree is a binary tree of split predicates in preorder. Child
// links are offsets, so the subtree under node i is a sub-slice.
type SplitTree []SplitNode

// size returns the node count of the subtree under node i.
func (t SplitTree) size(i int) int {
	end := i
	for t[end].Split != nil {
		end += t[end].No
	}
	return end + 1 - i
}

const (
	// routeRun bounds a run, so selection vectors are uint16 offsets
	// into it and the per-depth scratch stays inside the L1/L2 caches.
	routeRun = 8192
	// maxRouteDepth bounds the splits one pass descends: at most 256
	// leaves, which is what the one-byte leaf id can name. Deeper
	// subtrees are routed by a further pass over their own rows.
	maxRouteDepth = 8
)

// routeIdentity is the selection vector of a whole run.
var routeIdentity = func() (id [routeRun]uint16) {
	for i := range id {
		id[i] = uint16(i)
	}
	return id
}()

// RouteRows sends rows down the split tree t and returns, for every
// node in t's order, the rows that reach it, in input order. Entry 0
// is rows itself, the other lists are cut at their final size from
// one allocation, and a node no row reaches gets nil. Any row
// order is routed correctly; ascending rows — every selection the
// engine holds — read each page of each split column once. Safe for
// concurrent use over one relation: every call keeps its own page
// cursors.
func RouteRows(r Relation, t SplitTree, rows []int) [][]int {
	out := make([][]int, len(t))
	out[0] = rows
	routeInto(r, t, rows, out)
	return out
}

// PartitionRows splits rows into those matching p and those not,
// preserving order: the one-split case of RouteRows, so both halves
// come out of one allocation of len(rows).
func PartitionRows(r Relation, p Predicate, rows []int) (yes, no []int) {
	out := RouteRows(r, SplitTree{{Split: p, No: 2}, {}, {}}, rows)
	return out[1], out[2]
}

// routeInto fills out[1:] for the tree t over out[0] == rows.
func routeInto(r Relation, t SplitTree, rows []int, out [][]int) {
	if len(rows) == 0 || t[0].Split == nil {
		return
	}
	rt := newRouter(r, t, len(rows))
	rt.route(rows)
	rt.fill(rows, out)
	for _, i := range rt.cut {
		sub := t[i : i+t.size(i)]
		routeInto(r, sub, out[i], out[i:i+len(sub)])
	}
}

// routeKind selects the kernel a split is evaluated with.
type routeKind uint8

const (
	routeMatcher routeKind = iota // any predicate, row by row through CompileMatcher
	routeFloatLt                  // NumCmp{Lt} over float64 values
	routeIntLt                    // NumCmp{Lt} over int64 values
	routeBoolLt                   // NumCmp{Lt} over a bool bitmap
	routeCodeEq                   // StrEq over dictionary codes
)

// routeNode is the compiled form of one tree node.
type routeNode struct {
	leaf  int // leaf id, or -1 for a node that splits in this pass
	depth int
	kind  routeKind
	col   int              // index into router.cols (typed kinds)
	val   float64          // routeFloatLt, routeIntLt: the threshold
	code  int32            // routeCodeEq: the wanted dictionary code (-1: absent)
	m0    bool             // routeBoolLt: whether false matches
	m1    bool             // routeBoolLt: whether true matches
	match func(i int) bool // routeMatcher
}

// routeCol is the storage one typed kernel reads: the whole column of
// an in-memory table, or the current page of a segment column.
type routeCol struct {
	col Column

	floats []float64
	ints   []int64
	codes  []int32
	bits   []uint64
	nulls  []uint64 // nil when the column has no nulls

	seg             *segCol
	pi              int
	data, pageNulls []byte // pageNulls is nil when the page has no nulls
}

type router struct {
	tree  SplitTree
	nodes []routeNode
	cols  []routeCol
	// rpp is the segment page size (0: in-memory, runs are cut by
	// length only); page and run describe the run being routed, base
	// its first position in the selection.
	rpp, page, base int
	run             []int
	scratch         [][]uint16 // one selection vector per split depth
	match           []uint8    // one split's outcome per run offset
	leafOf          []uint8    // per selection position
	count           []int      // rows reaching each node; the fill's write cursors afterwards
	paths           [][]int32  // per leaf id: the non-root nodes from the root down to the leaf
	cut             []int      // leaves of this pass that still have a subtree
}

func newRouter(r Relation, t SplitTree, n int) *router {
	rt := &router{
		tree:   t,
		nodes:  make([]routeNode, len(t)),
		count:  make([]int, len(t)),
		leafOf: make([]uint8, n),
	}
	depth := rt.compile(r, 0, 0, nil)
	runCap := min(n, routeRun)
	rt.match = make([]uint8, runCap)
	buf := make([]uint16, depth*runCap)
	rt.scratch = make([][]uint16, depth)
	for d := range rt.scratch {
		rt.scratch[d] = buf[d*runCap : (d+1)*runCap]
	}
	return rt
}

// compile resolves the subtree under node i and returns the number of
// split levels in it.
func (rt *router) compile(r Relation, i, depth int, path []int32) int {
	t, nd := rt.tree, &rt.nodes[i]
	nd.depth = depth
	if i > 0 {
		path = append(path, int32(i))
	}
	if t[i].Split == nil || depth == maxRouteDepth {
		nd.leaf = len(rt.paths)
		rt.paths = append(rt.paths, append([]int32(nil), path...))
		if t[i].Split != nil {
			rt.cut = append(rt.cut, i)
		}
		return 0
	}
	nd.leaf = -1
	rt.compileSplit(r, nd, t[i].Split)
	return 1 + max(rt.compile(r, i+1, depth+1, path), rt.compile(r, i+t[i].No, depth+1, path))
}

// compileSplit picks the kernel for one split: the shapes CART emits
// (a numeric threshold, a string equality) over the column types both
// backings store get a typed kernel; everything else is evaluated by
// the compiled matcher.
func (rt *router) compileSplit(r Relation, nd *routeNode, p Predicate) {
	switch p := p.(type) {
	case NumCmp:
		if c := r.ColumnByName(p.Col); c != nil && p.Op == Lt {
			switch c.Type() {
			case Float64:
				nd.kind = routeFloatLt
			case Int64:
				nd.kind = routeIntLt
			case Bool:
				nd.kind = routeBoolLt
				nd.m0, nd.m1 = 0 < p.Val, 1 < p.Val
			}
			nd.val = p.Val
			if nd.kind != routeMatcher && rt.bindCol(nd, c) {
				return
			}
		}
	case StrEq:
		if c := r.ColumnByName(p.Col); c != nil && !p.Neq && c.Type() == String {
			nd.kind, nd.code = routeCodeEq, -1
			var index map[string]int32
			switch c := c.(type) {
			case *StringColumn:
				index = c.index
			case *segCol:
				index = c.index
			}
			if code, ok := index[p.Val]; ok {
				nd.code = code
			}
			if rt.bindCol(nd, c) {
				return
			}
		}
	}
	nd.kind = routeMatcher
	nd.match = CompileMatcher(r, p)
}

// bindCol points nd at the storage of c, shared by every split on the
// same column so a segment page is fetched once per run. It reports
// false for a column implementation the typed kernels cannot read.
func (rt *router) bindCol(nd *routeNode, c Column) bool {
	for i := range rt.cols {
		if rt.cols[i].col == c {
			nd.col = i
			return true
		}
	}
	rc := routeCol{col: c, pi: -1}
	var nulls *Bitmap
	switch c := c.(type) {
	case *FloatColumn:
		rc.floats, nulls = c.vals, c.nulls
	case *IntColumn:
		rc.ints, nulls = c.vals, c.nulls
	case *BoolColumn:
		rc.bits, nulls = c.vals.words, c.nulls
	case *StringColumn:
		rc.codes, nulls = c.codes, c.nulls
	case *segCol:
		rc.seg, rt.rpp = c, c.rpp
	default:
		return false
	}
	if nulls.Any() {
		rc.nulls = nulls.words
	}
	nd.col = len(rt.cols)
	rt.cols = append(rt.cols, rc)
	return true
}

// route is the first pass: every run of the selection descends the
// tree, leaving its rows' leaf ids and the per-node counts behind.
func (rt *router) route(rows []int) {
	for p0 := 0; p0 < len(rows); {
		p1 := min(p0+routeRun, len(rows))
		if rt.rpp > 0 {
			rt.page = rows[p0] / rt.rpp
			p1 = p0 + pageRun(rows[p0:p1], rt.page*rt.rpp, (rt.page+1)*rt.rpp)
		}
		rt.base, rt.run = p0, rows[p0:p1]
		rt.visit(0, routeIdentity[:p1-p0])
		p0 = p1
	}
}

// visit routes the run positions in sel through the subtree under
// node i.
func (rt *router) visit(i int, sel []uint16) {
	if len(sel) == 0 {
		return
	}
	nd := &rt.nodes[i]
	rt.count[i] += len(sel)
	if nd.leaf >= 0 {
		markLeaf(rt.leafOf[rt.base:], sel, uint8(nd.leaf))
		return
	}
	out := rt.scratch[nd.depth][:len(sel)]
	ny := rt.partition(nd, sel, out)
	rt.visit(i+1, out[:ny])
	rt.visit(i+rt.tree[i].No, out[ny:])
}

// partition evaluates nd's split over sel: the offsets that match go
// to the front of out, the others to its back (in reverse, which is
// immaterial: only leaf ids and counts leave this pass). It returns
// the number that matched. The split is evaluated into one match byte
// per offset first, nulls are cleared from it, and the bytes steer a
// branch-free partition.
func (rt *router) partition(nd *routeNode, sel, out []uint16) int {
	m := rt.match[:len(sel)]
	if nd.kind == routeMatcher {
		evalMatcher(nd.match, rt.run, sel, m)
		return splitSel(sel, m, out)
	}
	c := &rt.cols[nd.col]
	if c.seg == nil {
		switch nd.kind {
		case routeFloatLt:
			evalNumLt(c.floats, rt.run, sel, m, nd.val)
		case routeIntLt:
			evalNumLt(c.ints, rt.run, sel, m, nd.val)
		case routeBoolLt:
			evalBoolLt(c.bits, rt.run, sel, m, nd.m0, nd.m1)
		default:
			evalCodeEq(c.codes, rt.run, sel, m, nd.code)
		}
		if c.nulls != nil {
			clearNulls(c.nulls, rt.run, sel, m)
		}
		return splitSel(sel, m, out)
	}
	if c.pi != rt.page {
		c.data, c.pageNulls = c.seg.fetch(rt.page)
		c.pi = rt.page
	}
	base := rt.page * rt.rpp
	switch nd.kind {
	case routeFloatLt:
		evalFloatLtPage(c.data, base, rt.run, sel, m, nd.val)
	case routeIntLt:
		evalIntLtPage(c.data, base, rt.run, sel, m, nd.val)
	case routeBoolLt:
		evalBoolLtPage(c.data, base, rt.run, sel, m, nd.m0, nd.m1)
	default:
		evalCodeEqPage(c.data, base, rt.run, sel, m, nd.code)
	}
	if c.pageNulls != nil {
		clearNullsPage(c.pageNulls, base, rt.run, sel, m)
	}
	return splitSel(sel, m, out)
}

// fill is the second pass: every non-root node reached gets its row
// list, at its final size, out of one allocation for the whole call,
// and one walk over the leaf ids copies each row into the lists on its
// leaf's path.
func (rt *router) fill(rows []int, out [][]int) {
	total := 0
	for _, n := range rt.count[1:] {
		total += n
	}
	buf := make([]int, total)
	off := 0
	for i := 1; i < len(rt.count); i++ {
		n := rt.count[i]
		if n > 0 {
			out[i] = buf[off : off+n : off+n]
		}
		rt.count[i] = off // from here on the node's write cursor
		off += n
	}
	fillPaths(rows, rt.leafOf, rt.paths, buf, rt.count)
}

// pageRun returns how many leading rows lie in [lo, hi), at least one.
//
//blaeu:hot
func pageRun(rows []int, lo, hi int) int {
	n := 1
	for n < len(rows) && rows[n] >= lo && rows[n] < hi {
		n++
	}
	return n
}

//blaeu:hot
func markLeaf(leafOf []uint8, sel []uint16, leaf uint8) {
	for _, s := range sel {
		leafOf[s] = leaf
	}
}

// fillPaths copies every row into the list of each node on its leaf's
// path; pos holds the per-node write cursors into buf.
//
//blaeu:hot
func fillPaths(rows []int, leafOf []uint8, paths [][]int32, buf []int, pos []int) {
	for p, row := range rows {
		for _, nd := range paths[leafOf[p]] {
			buf[pos[nd]] = row
			pos[nd]++
		}
	}
}

// The split kernels. Each writes into m[k] whether the row at run
// offset sel[k] matches, as 0 or 1, nulls not yet considered. The
// in-memory kernels index the whole column by row, the page kernels
// index one little-endian segment page by row - base.

//blaeu:hot
func evalMatcher(match func(i int) bool, run []int, sel []uint16, m []uint8) {
	for k, s := range sel {
		m[k] = bit(match(run[s]))
	}
}

//blaeu:hot
func evalNumLt[T float64 | int64](vals []T, run []int, sel []uint16, m []uint8, val float64) {
	for k, s := range sel {
		m[k] = bit(float64(vals[run[s]]) < val)
	}
}

//blaeu:hot
func evalBoolLt(bits []uint64, run []int, sel []uint16, m []uint8, m0, m1 bool) {
	b0, b1 := bit(m0), bit(m1)
	for k, s := range sel {
		i := run[s]
		v := uint8(bits[i>>6] >> (uint(i) & 63) & 1)
		m[k] = b0&^v | b1&v
	}
}

//blaeu:hot
func evalCodeEq(codes []int32, run []int, sel []uint16, m []uint8, code int32) {
	for k, s := range sel {
		m[k] = bit(codes[run[s]] == code)
	}
}

//blaeu:hot
func evalFloatLtPage(data []byte, base int, run []int, sel []uint16, m []uint8, val float64) {
	for k, s := range sel {
		m[k] = bit(math.Float64frombits(le64(data[(run[s]-base)*8:])) < val)
	}
}

//blaeu:hot
func evalIntLtPage(data []byte, base int, run []int, sel []uint16, m []uint8, val float64) {
	for k, s := range sel {
		m[k] = bit(float64(int64(le64(data[(run[s]-base)*8:]))) < val)
	}
}

//blaeu:hot
func evalBoolLtPage(data []byte, base int, run []int, sel []uint16, m []uint8, m0, m1 bool) {
	b0, b1 := bit(m0), bit(m1)
	for k, s := range sel {
		j := run[s] - base
		v := data[j>>3] >> (uint(j) & 7) & 1
		m[k] = b0&^v | b1&v
	}
}

//blaeu:hot
func evalCodeEqPage(data []byte, base int, run []int, sel []uint16, m []uint8, code int32) {
	for k, s := range sel {
		b := data[(run[s]-base)*4:]
		_ = b[3]
		m[k] = bit(int32(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24) == code)
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
