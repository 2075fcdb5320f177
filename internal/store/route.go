package store

// Tree routing: a selection is pushed through a whole tree of split
// predicates in one pass over its pages. This is stage 5 of the
// paper's Fig. 3 pipeline (the description tree applied to the full
// selection) and, with a single split, CART's own partition step; it
// is the only part of a click whose cost grows with the table, so the
// unit of work is the page, not the row: the selection is cut into
// runs of rows that share a page, each run descends the tree as a
// selection vector through the batch kernels of kernel.go (every split
// is a compiled predicate of the same family the scan evaluates), and
// each needed column page is fetched once per build. The first pass
// only records a one-byte leaf id per row and a count per node; a
// second, memory-only pass fills row lists that were allocated at
// their final size.

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

// routeNode is the compiled form of one tree node.
type routeNode struct {
	leaf  int // leaf id, or -1 for a node that splits in this pass
	depth int
	split predNode
}

type router struct {
	evaluator
	tree    SplitTree
	nodes   []routeNode
	base    int        // first position in the selection of the run being routed
	scratch [][]uint16 // one selection vector per split depth
	match   []uint8    // one split's outcome per run offset
	leafOf  []uint8    // per selection position
	count   []int      // rows reaching each node; the fill's write cursors afterwards
	paths   [][]int32  // per leaf id: the non-root nodes from the root down to the leaf
	cut     []int      // leaves of this pass that still have a subtree
}

func newRouter(r Relation, t SplitTree, n int) *router {
	runCap := min(n, routeRun)
	rt := &router{
		evaluator: evaluator{runCap: runCap},
		tree:      t,
		nodes:     make([]routeNode, len(t)),
		count:     make([]int, len(t)),
		leafOf:    make([]uint8, n),
		match:     make([]uint8, runCap),
	}
	depth := rt.compileNode(r, 0, 0, nil)
	buf := make([]uint16, depth*runCap)
	rt.scratch = make([][]uint16, depth)
	for d := range rt.scratch {
		rt.scratch[d] = buf[d*runCap : (d+1)*runCap]
	}
	return rt
}

// compileNode resolves the subtree under node i and returns the number
// of split levels in it.
func (rt *router) compileNode(r Relation, i, depth int, path []int32) int {
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
	nd.split = rt.compile(r, t[i].Split)
	return 1 + max(rt.compileNode(r, i+1, depth+1, path), rt.compileNode(r, i+t[i].No, depth+1, path))
}

// route is the first pass: every run of the selection descends the
// tree, leaving its rows' leaf ids and the per-node counts behind.
func (rt *router) route(rows []int) {
	rowRuns(rows, len(rows), routeRun, rt.rpp, func(off, page int, run []int) {
		rt.base, rt.page, rt.run = off, page, run
		rt.visit(0, routeIdentity[:len(run)])
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
	rt.count[i] += len(sel)
	if nd.leaf >= 0 {
		markLeaf(rt.leafOf[rt.base:], sel, uint8(nd.leaf))
		return
	}
	m, out := rt.match[:len(sel)], rt.scratch[nd.depth][:len(sel)]
	rt.eval(&nd.split, sel, m)
	ny := splitSel(sel, m, out)
	rt.visit(i+1, out[:ny])
	rt.visit(i+rt.tree[i].No, out[ny:])
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
