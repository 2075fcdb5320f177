package store

import (
	"slices"
	"sync"
)

// Tree routing: a selection is pushed through a whole tree of split
// predicates in one pass over its pages. This is stage 5 of the
// paper's Fig. 3 pipeline (the description tree applied to the full
// selection) and, with a single split, CART's own partition step; it
// is the only part of a click whose cost grows with the table, so the
// unit of work is the page, not the row: the selection is cut into
// runs of rows that share a page, each run descends the tree as a
// selection vector through the batch kernels of kernel.go (every split
// is a compiled predicate of the same family the scan evaluates), and
// each needed column page is fetched once per build. The pass only
// records a one-byte leaf id per row and a count per node: a node's
// rows are collected from the leaf ids when something reads them,
// which for a map is the one region the user zooms into or inspects.

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
// leaves, which is what the one-byte leaf id can name. Deeper subtrees
// are routed by a further pass over their own rows.
const maxRouteDepth = 8

// Routing is a selection of a relation sent down a split tree: the leaf
// id of every row and the number of rows reaching every node. Leaf ids
// are numbered in preorder, so the leaves under a node are one id
// range, and a node's rows are one pass over the ids — made the first
// time they are read and kept, as are the statistics of a column over
// them. Safe for concurrent use.
type Routing struct {
	rel    Relation
	sel    *RowSet
	leafOf []uint8 // per selection position
	count  []int   // rows reaching each node
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
func Route(r Relation, t SplitTree, rows *RowSet) *Routing {
	rg := &Routing{rel: r, sel: rows, count: make([]int, len(t)), nodes: make([]routedNode, len(t)), sets: make([]*RowSet, len(t))}
	if rows.Len() == 0 || t[0].Split == nil {
		rg.count[0] = rows.Len()
		return rg
	}
	rt := newRouter(r, t, rg)
	rt.route(rows)
	for _, i := range rt.cut {
		sub := Route(r, t[i:i+t.size(i)], rg.Rows(i))
		for j := 1; j < len(sub.count); j++ {
			rg.nodes[i+j] = routedNode{sub: sub, off: i}
			rg.count[i+j] = sub.count[j]
		}
	}
	return rg
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
			ends = rg.sel.Pick(leafEnds(rg.leafOf, nd.lo, nd.hi-nd.lo))
		}
		b := newSetBuilder(rg.count[i], ends[0], ends[1]+1)
		rg.collect(b, nd.lo, nd.hi-nd.lo)
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

// collect adds to b, in order, the rows whose leaf id lies in
// [lo, lo+span), until b is done.
func (rg *Routing) collect(b *setBuilder, lo, span uint) {
	if b.done() {
		return
	}
	m := make([]uint8, min(readRun, rg.sel.Len()))
	rg.sel.runs(readRun, 0, func(off, _ int, run []int) bool {
		mr := m[:len(run)]
		b.add(run, mr, onLeaves(mr, rg.leafOf[off:off+len(run)], lo, span))
		return !b.done()
	})
}

// PartitionRows splits rows — strictly ascending — into those matching
// p and those not: the one-split case of Route. The halves are lists
// cut at their length.
func PartitionRows(r Relation, p Predicate, rows []int) (yes, no []int) {
	rg := Route(r, SplitTree{{Split: p, No: 2}, {}, {}}, listOf(rows))
	list := func(i int) []int {
		b := newListBuilder(rg.count[i])
		rg.collect(b, rg.nodes[i].lo, rg.nodes[i].hi-rg.nodes[i].lo)
		return b.s.ids
	}
	return list(1), list(2)
}

// routeNode is the compiled form of one tree node.
type routeNode struct {
	leaf  int // leaf id, or -1 for a node that splits in this pass
	depth int
	split predNode
}

// router is one pass's evaluation state; it writes the leaf ids, the
// counts and the leaf ranges of out.
type router struct {
	evaluator
	tree    SplitTree
	nodes   []routeNode
	out     *Routing
	leaves  int        // leaf ids handed out so far
	base    int        // first position in the selection of the run being routed
	scratch [][]uint16 // one selection vector per split depth
	match   []uint8    // one split's outcome per run offset
	cut     []int      // leaves of this pass that still have a subtree
}

func newRouter(r Relation, t SplitTree, out *Routing) *router {
	n := out.sel.Len()
	runCap := min(n, routeRun)
	out.leafOf = make([]uint8, n)
	rt := &router{
		evaluator: evaluator{runCap: runCap},
		tree:      t,
		nodes:     make([]routeNode, len(t)),
		out:       out,
		match:     make([]uint8, runCap),
	}
	depth := rt.compileNode(r, 0, 0)
	buf := make([]uint16, depth*runCap)
	rt.scratch = make([][]uint16, depth)
	for d := range rt.scratch {
		rt.scratch[d] = buf[d*runCap : (d+1)*runCap]
	}
	return rt
}

// compileNode resolves the subtree under node i, numbering its leaves,
// and returns the number of split levels in it.
func (rt *router) compileNode(r Relation, i, depth int) int {
	t, nd, span := rt.tree, &rt.nodes[i], &rt.out.nodes[i]
	nd.depth = depth
	span.lo = uint(rt.leaves)
	if t[i].Split == nil || depth == maxRouteDepth {
		nd.leaf = rt.leaves
		rt.leaves++
		span.hi = span.lo + 1
		if t[i].Split != nil {
			rt.cut = append(rt.cut, i)
		}
		return 0
	}
	nd.leaf = -1
	nd.split = rt.compile(r, t[i].Split)
	levels := 1 + max(rt.compileNode(r, i+1, depth+1), rt.compileNode(r, i+t[i].No, depth+1))
	span.hi = uint(rt.leaves)
	return levels
}

// route is the pass: every run of the selection descends the tree,
// leaving its rows' leaf ids and the per-node counts behind.
func (rt *router) route(rows *RowSet) {
	rows.runs(routeRun, rt.rpp, func(off, page int, run []int) bool {
		rt.base, rt.page, rt.run = off, page, run
		rt.visit(0, routeIdentity[:len(run)])
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
		markLeaf(rt.out.leafOf[rt.base:], sel, uint8(nd.leaf))
		return
	}
	m, out := rt.match[:len(sel)], rt.scratch[nd.depth][:len(sel)]
	rt.eval(&nd.split, sel, m)
	ny := splitSel(sel, m, out)
	rt.visit(i+1, out[:ny])
	rt.visit(i+rt.tree[i].No, out[ny:])
}

//blaeu:hot
func markLeaf(leafOf []uint8, sel []uint16, leaf uint8) {
	for _, s := range sel {
		leafOf[s] = leaf
	}
}

// onLeaves sets m[p] to whether leaf id leafOf[p] lies in [lo, lo+span)
// and returns how many do.
//
//blaeu:hot
func onLeaves(m, leafOf []uint8, lo, span uint) int {
	n := 0
	for p, id := range leafOf {
		m[p] = bit(uint(id)-lo < span)
		n += int(m[p])
	}
	return n
}

// leafEnds returns the first and the last position whose leaf id lies
// in [lo, lo+span); there is one.
func leafEnds(leafOf []uint8, lo, span uint) []int {
	first, last := 0, len(leafOf)-1
	for uint(leafOf[first])-lo >= span {
		first++
	}
	for uint(leafOf[last])-lo >= span {
		last--
	}
	return []int{first, last}
}
