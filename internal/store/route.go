package store

import (
	"math/bits"
	"slices"
	"sync"
)

// Tree routing: a selection is pushed through a whole tree of split
// predicates in one pass over its pages. This is stage 5 of the
// paper's Fig. 3 pipeline (the description tree applied to the full
// selection) and, with a single split, PartitionRows; it
// is the only part of a click whose cost grows with the table, so the
// unit of work is the page, not the row: the selection is cut into
// runs of rows that share a page, each run descends the tree as a
// selection vector through the batch kernels of kernel.go (every split
// is a compiled predicate, whose zone maps skip the pages it cannot
// match), and each needed column page is fetched once per build. The
// scan operators (scan.go) are its one-split case. The pass only
// records a leaf id per row, in the ⌈log₂ L⌉ bits that name the L
// leaves of the tree, and a count per node: a node's rows are collected
// from the leaf ids when something reads them, which for a map is the
// one region the user zooms into or inspects.

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

// maxRouteDepth bounds the splits one pass descends: at most 256
// leaves, so a leaf id is at most 8 bits wide. Deeper subtrees are
// routed by a further pass over their own rows.
const maxRouteDepth = 8

// Routing is a selection of a relation sent down a split tree: the leaf
// id of every row and the number of rows reaching every node. Leaf ids
// are numbered in preorder, so the leaves under a node are one id
// range, and a node's rows are one pass over the ids — made the first
// time they are read and kept, as are the statistics of a column over
// them. The ids are stored as bit-planes, one bitmap over the selection
// positions per bit of an id, so a route through L leaves keeps
// ⌈log₂ L⌉ bits a row and tests 64 rows' ids against a range at once.
// Safe for concurrent use.
type Routing struct {
	rel    Relation
	sel    *RowSet
	planes [][]uint64 // bit j of position p's leaf id is bit p of planes[j]
	count  []int      // rows reaching each node
	nodes  []routedNode
	mu     sync.Mutex
	sets   []*RowSet                // per node, its rows once built (guarded by mu)
	stats  map[statsKey]ColumnStats // per node and column, once computed (guarded by mu)
}

// statsKey names a column of the routing's relation over a node's rows.
type statsKey struct {
	node   int
	column string
}

// routedNode is where a node's rows come from: the leaf ids [lo, hi)
// of this routing or, under a node cut at maxRouteDepth, node i-off of
// the routing of the cut node's rows.
type routedNode struct {
	lo, hi uint
	sub    *Routing
	off    int
}

// Route sends the selection rows down the split tree t in one pass —
// each page of each split column is read once — and returns the
// routing. Safe for concurrent use over one relation: every call keeps
// its own page cursors.
func Route(r Relation, t SplitTree, rows *RowSet) *Routing { return route(r, t, rows, nil) }

// route is Route that, when tally is not nil, hands it every run of the
// pass with the root split's match bytes — all the match bytes of a
// one-split tree — and whether the run's page is one the root's zone
// map excludes.
func route(r Relation, t SplitTree, rows *RowSet, tally func(run []int, m []uint8, excluded bool)) *Routing {
	if rows.Len() == 0 || t[0].Split == nil {
		rg := newRouting(r, t, rows)
		rg.count[0] = rows.Len()
		return rg
	}
	return newRouter(r, t, rows.Len()).route(rows, tally)
}

// newRouting is a routing of rows through t with nothing routed yet.
func newRouting(r Relation, t SplitTree, rows *RowSet) *Routing {
	return &Routing{rel: r, sel: rows, count: make([]int, len(t)), nodes: make([]routedNode, len(t)), sets: make([]*RowSet, len(t))}
}

// Count returns how many rows reach node i.
func (rg *Routing) Count(i int) int { return rg.count[i] }

// Rows returns the rows reaching node i: node 0's are the selection
// itself, every other node's are built on the first call — at their
// final size and form, so at most min(8·count, span/8) bytes — and
// shared by every later one.
func (rg *Routing) Rows(i int) *RowSet {
	nd := &rg.nodes[i]
	switch {
	case i == 0:
		return rg.sel
	case nd.sub != nil:
		return nd.sub.Rows(i - nd.off)
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if rg.sets[i] == nil {
		// The rows at the node's first and last positions give its span,
		// so the set is allocated once, in its smallest form.
		ends := []int{0, -1}
		if rg.count[i] > 0 {
			ends = rg.sel.Pick(rg.leafEnds(nd.lo, nd.hi))
		}
		b := newSetBuilder(rg.count[i], ends[0], ends[1]+1)
		rg.collect(b, nd.lo, nd.hi)
		rg.sets[i] = b.s
	}
	return rg.sets[i]
}

// Stats returns StatsRows of the named column of the routed relation
// over the rows reaching node i (a zero-valued struct, as Stats gives,
// when there is no such column). The value is computed on the first
// call and kept for every later one; each caller gets its own
// TopValues. It is computed outside the lock, so other nodes' reads do
// not wait on a large region; two racing first calls compute the same
// value. The memo is allocated on the first call and holds at most one
// entry per node and column.
func (rg *Routing) Stats(i int, column string) ColumnStats {
	k := statsKey{i, column}
	rg.mu.Lock()
	s, ok := rg.stats[k]
	rg.mu.Unlock()
	if !ok {
		c := rg.rel.ColumnByName(column)
		if c == nil {
			return ColumnStats{Name: column}
		}
		s = StatsRows(c, rg.Rows(i))
		rg.mu.Lock()
		if rg.stats == nil {
			rg.stats = make(map[statsKey]ColumnStats)
		}
		rg.stats[k] = s
		rg.mu.Unlock()
	}
	s.TopValues = slices.Clone(s.TopValues)
	return s
}

// collect adds to b, in order, the rows whose leaf id lies in [lo, hi),
// until b is done: a list with room for fewer gets the first of them.
func (rg *Routing) collect(b *setBuilder, lo, hi uint) {
	if b.done() {
		return
	}
	sc := takeRunScratch()
	defer sc.release()
	sc.match = resize(sc.match, min(readRun, rg.sel.Len()))
	m := sc.match
	rg.sel.runs(readRun, 0, func(off, _ int, run []int) bool {
		mr := m[:len(run)]
		b.add(run, mr, min(onLeaves(mr, rg.planes, off, lo, hi), b.s.n-b.k))
		return !b.done()
	})
}

// list returns the rows reaching node i as a list cut at its length,
// nil when there are none: what the one-split operators hand back,
// never built as a set only to be decoded.
func (rg *Routing) list(i int) []int {
	if rg.count[i] == 0 {
		return nil
	}
	b := newListBuilder(rg.count[i])
	rg.collect(b, rg.nodes[i].lo, rg.nodes[i].hi)
	return b.s.ids
}

// PartitionRows splits rows — strictly ascending — into those matching
// p and those not: the one-split case of Route. The halves are lists
// cut at their length.
func PartitionRows(r Relation, p Predicate, rows []int) (yes, no []int) {
	rg := Route(r, SplitTree{{Split: p, No: 2}, {}, {}}, listOf(rows))
	return rg.list(1), rg.list(2)
}

// routeNode is the compiled form of one tree node.
type routeNode struct {
	leaf   int  // leaf id, or -1 for a node that splits in this pass
	lo, hi uint // the leaf ids under the node
	depth  int
	split  predNode
}

// router is a split tree compiled over a relation, and the evaluation
// state of its passes; each pass writes the leaf ids, the counts and
// the leaf ranges of its own Routing. Compiling resolves every split —
// a numeric comparison over a string column parses its whole dictionary
// — so a caller routing several selections through one tree
// (FilterLimit) compiles it once.
type router struct {
	evaluator
	rel    Relation
	tree   SplitTree
	nodes  []routeNode
	depth  int      // split levels in one pass
	out    *Routing // the routing the current pass writes
	leaves int      // leaf ids handed out at compile
	cut    []int    // leaves of a pass that still have a subtree
	// sc is the current pass's scratch (see runScratch): match holds one
	// split's outcome per run offset, leafIDs the leaf id of every
	// offset of the run being routed, and sel one selection vector of
	// runCap offsets per split depth.
	sc *runScratch
}

// newRouter compiles t, whose root splits, over r for selections of at
// most n rows.
func newRouter(r Relation, t SplitTree, n int) *router {
	rt := &router{
		evaluator: evaluator{runCap: min(n, routeRun)},
		rel:       r,
		tree:      t,
		nodes:     make([]routeNode, len(t)),
	}
	rt.depth = rt.compileNode(r, 0, 0)
	return rt
}

// route sends rows, at most the router's n, down the tree in one pass,
// and the rows of the subtrees cut at maxRouteDepth by further passes.
func (rt *router) route(rows *RowSet, tally func(run []int, m []uint8, excluded bool)) *Routing {
	rg := newRouting(rt.rel, rt.tree, rows)
	for i, nd := range rt.nodes {
		rg.nodes[i].lo, rg.nodes[i].hi = nd.lo, nd.hi
	}
	words := bitmapWords(rows.Len())
	rg.planes = make([][]uint64, bits.Len(uint(rt.leaves-1)))
	planes := make([]uint64, len(rg.planes)*words)
	for j := range rg.planes {
		rg.planes[j] = planes[j*words : (j+1)*words]
	}
	rt.out = rg
	rt.pass(rows, tally)
	for _, i := range rt.cut {
		sub := Route(rt.rel, rt.tree[i:i+rt.tree.size(i)], rg.Rows(i))
		for j := 1; j < len(sub.count); j++ {
			rg.nodes[i+j] = routedNode{sub: sub, off: i}
			rg.count[i+j] = sub.count[j]
		}
	}
	return rg
}

// compileNode resolves the subtree under node i, numbering its leaves,
// and returns the number of split levels in it.
func (rt *router) compileNode(r Relation, i, depth int) int {
	t, nd := rt.tree, &rt.nodes[i]
	nd.depth = depth
	nd.lo = uint(rt.leaves)
	if t[i].Split == nil || depth == maxRouteDepth {
		nd.leaf = rt.leaves
		rt.leaves++
		nd.hi = nd.lo + 1
		if t[i].Split != nil {
			rt.cut = append(rt.cut, i)
		}
		return 0
	}
	nd.leaf = -1
	nd.split = rt.compile(r, t[i].Split)
	levels := 1 + max(rt.compileNode(r, i+1, depth+1), rt.compileNode(r, i+t[i].No, depth+1))
	nd.hi = uint(rt.leaves)
	return levels
}

// pass routes the selection: every run descends the tree, leaving its
// rows' leaf ids and the per-node counts behind, and then goes to tally
// (see route). A run's ids are written a byte per offset, then packed
// into the bit-planes.
func (rt *router) pass(rows *RowSet, tally func(run []int, m []uint8, excluded bool)) {
	rt.sc = takeRunScratch()
	defer func() {
		rt.sc.release()
		rt.sc, rt.vals = nil, nil
	}()
	rt.sc.match = resize(rt.sc.match, rt.runCap)
	rt.sc.leafIDs = resize(rt.sc.leafIDs, rt.runCap)
	rt.sc.sel = resize(rt.sc.sel, rt.depth*rt.runCap)
	rt.sc.vals = resize(rt.sc.vals, min(rt.runCap, kernelChunk))
	rt.vals = rt.sc.vals
	rows.runs(routeRun, rt.rpp, func(off, page int, run []int) bool {
		rt.page, rt.run = page, run
		rt.visit(0, routeIdentity[:len(run)])
		packLeaves(rt.out.planes, off, rt.sc.leafIDs[:len(run)])
		if tally != nil {
			root := &rt.nodes[0].split
			tally(run, rt.sc.match[:len(run)], root.zone && rt.excluded(root))
		}
		return true
	})
}

// visit routes the run positions in sel through the subtree under
// node i: the split is evaluated into one match byte per offset, and
// the bytes steer a branch-free partition — the offsets that match to
// the front of the depth's scratch, the others to its back (in reverse,
// which is immaterial: only leaf ids and counts leave this pass).
func (rt *router) visit(i int, sel []uint16) {
	if len(sel) == 0 {
		return
	}
	nd := &rt.nodes[i]
	rt.out.count[i] += len(sel)
	if nd.leaf >= 0 {
		markLeaf(rt.sc.leafIDs, sel, uint8(nd.leaf))
		return
	}
	m, out := rt.sc.match[:len(sel)], rt.sc.sel[nd.depth*rt.runCap:][:len(sel)]
	rt.eval(&nd.split, sel, m)
	yes, no := i+1, i+rt.tree[i].No
	if leaf := rt.nodes[no].leaf; leaf >= 0 && rt.nodes[yes].leaf >= 0 {
		// Two leaves, numbered leaf-1 and leaf: the match bytes give the
		// ids, so the bottom split skips its partition and the leaves'
		// passes, which saves more than packing the ids costs.
		ny := markSplit(rt.sc.leafIDs, sel, m, uint8(leaf))
		rt.out.count[yes] += ny
		rt.out.count[no] += len(sel) - ny
		return
	}
	ny := splitSel(sel, m, out)
	rt.visit(yes, out[:ny])
	rt.visit(no, out[ny:])
}

//blaeu:hot
func markLeaf(leafIDs []uint8, sel []uint16, leaf uint8) {
	for _, s := range sel {
		leafIDs[s] = leaf
	}
}

// markSplit writes the ids of a split into leaves no-1 (matched) and
// no, and returns how many matched.
//
//blaeu:hot
func markSplit(leafIDs []uint8, sel []uint16, m []uint8, no uint8) int {
	ny := 0
	for k, s := range sel {
		leafIDs[s] = no - m[k]
		ny += int(m[k])
	}
	return ny
}

// packLeaves adds ids, one a byte, to the bit-planes as the leaf ids
// of the selection positions from off on, whose bits are still zero.
// Each plane word is assembled in a register and written once.
//
//blaeu:hot
func packLeaves(planes [][]uint64, off int, ids []uint8) {
	for len(ids) > 0 {
		at := off & 63
		k := min(len(ids), 64-at)
		for j, plane := range planes {
			plane[off>>6] |= bitOf(ids[:k], uint(j)) << at
		}
		ids, off = ids[k:], off+k
	}
}

// bitOf returns bit j of each of ids — at most 64 — as one word: bit i
// is ids[i]'s. Eight ids are read as one word and their bits gathered
// into its top byte by one multiply (every partial product lands on its
// own bit, so nothing carries); the bytes enter w from the top, and a
// shift of 64 or more clears a word.
//
//blaeu:hot
func bitOf(ids []uint8, j uint) uint64 {
	j &= 7 // an id has 8 bits; the mask spares each shift a range check
	var w uint64
	i := 0
	for ; i+8 <= len(ids); i += 8 {
		b := ids[i : i+8 : i+8]
		x := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		w = w>>8 | (x>>j&0x0101010101010101)*0x0102040810204080&0xff00000000000000
	}
	w >>= 64 - i
	for ; i < len(ids); i++ {
		w |= uint64(ids[i]>>j&1) << i
	}
	return w
}

// onLeaves sets m[k] to whether the leaf id of selection position off+k
// lies in [lo, hi) and returns how many do. Eight positions' bits are
// spread to eight bytes at once: copied to every byte, each byte keeps
// its own bit, and adding 0x7f carries any set bit to the byte's top.
//
//blaeu:hot
func onLeaves(m []uint8, planes [][]uint64, off int, lo, hi uint) int {
	n := 0
	for len(m) > 0 {
		at := off & 63
		k := min(len(m), 64-at)
		x := leavesIn(planes, off>>6, lo, hi) >> at & (1<<k - 1) // 1<<64 is 0
		n += bits.OnesCount64(x)
		p := 0
		for ; p+8 <= k; p += 8 {
			v := (uint64(uint8(x))*0x0101010101010101&0x8040201008040201 + 0x7f7f7f7f7f7f7f7f) >> 7 & 0x0101010101010101
			b := m[p : p+8 : p+8]
			b[0], b[1], b[2], b[3] = uint8(v), uint8(v>>8), uint8(v>>16), uint8(v>>24)
			b[4], b[5], b[6], b[7] = uint8(v>>32), uint8(v>>40), uint8(v>>48), uint8(v>>56)
			x >>= 8
		}
		for ; p < k; p++ {
			m[p] = uint8(x & 1)
			x >>= 1
		}
		m, off = m[k:], off+k
	}
	return n
}

// leavesIn returns the positions of plane word q whose leaf id lies in
// [lo, hi), as a bitmap.
//
//blaeu:hot
func leavesIn(planes [][]uint64, q int, lo, hi uint) uint64 {
	return below(planes, q, hi) &^ below(planes, q, lo)
}

// below returns the positions of plane word q whose leaf id is below c:
// a comparison of every position's id with c, bit by bit from the top,
// 64 positions at a time.
//
//blaeu:hot
func below(planes [][]uint64, q int, c uint) uint64 {
	if c>>len(planes) != 0 {
		return ^uint64(0)
	}
	lt, eq := uint64(0), ^uint64(0)
	for j := len(planes) - 1; j >= 0; j-- {
		b := planes[j][q]
		if c>>j&1 != 0 {
			lt |= eq &^ b
			eq &= b
		} else {
			eq &^= b
		}
	}
	return lt
}

// leafEnds returns the first and the last position whose leaf id lies
// in [lo, hi); there is one. The bits past the last position are zero,
// id 0, so the last word is cut at it.
func (rg *Routing) leafEnds(lo, hi uint) []int {
	q := 0
	for leavesIn(rg.planes, q, lo, hi) == 0 {
		q++
	}
	first := q<<6 + bits.TrailingZeros64(leavesIn(rg.planes, q, lo, hi))
	n := rg.sel.Len()
	q = (n - 1) >> 6
	x := leavesIn(rg.planes, q, lo, hi) & (^uint64(0) >> (63 - uint(n-1)&63))
	for x == 0 {
		q--
		x = leavesIn(rg.planes, q, lo, hi)
	}
	return []int{first, q<<6 + 63 - bits.LeadingZeros64(x)}
}
