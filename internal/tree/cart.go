// Package tree implements CART classification trees (Breiman, Friedman,
// Stone & Olshen 1984), the cluster-description stage of Blaeu's mapping
// pipeline (paper Fig. 3): a tree is trained on the original tuples with
// cluster IDs as class labels, turning opaque clusters into interpretable
// predicates such as "AverageIncome >= 22".
package tree

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/store"
)

// Options tunes tree induction.
type Options struct {
	// MaxDepth bounds tree depth (root = depth 0; default 4 — data maps
	// must stay readable).
	MaxDepth int
	// MinLeaf is the minimum number of tuples in a leaf (default 5).
	MinLeaf int
}

const (
	// minImpurityDecrease is the weighted Gini gain below which a split
	// is not made.
	minImpurityDecrease = 1e-7
	// maxCategories bounds how many distinct levels of a categorical
	// column are tried as one-vs-rest splits, most frequent first.
	maxCategories = 16
)

func (o *Options) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 5
	}
}

// Node is one node of a fitted tree. Leaves have nil Left/Right.
type Node struct {
	// Split is the predicate routing tuples to the Left child; tuples
	// failing it go Right. Nil for leaves.
	Split store.Predicate
	// SplitMissing records whether any training tuple at this node was
	// missing the split column's value; those tuples routed Right, so
	// the right branch's complement predicate must also match nulls.
	SplitMissing bool
	// Left and Right are the child nodes (nil for leaves).
	Left, Right *Node
	// Class is the majority class at this node.
	Class int
	// N is the number of training tuples that reached this node.
	N int
	// Counts holds the per-class tuple counts at this node.
	Counts []int
	// Impurity is the Gini impurity at this node.
	Impurity float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a fitted CART classifier.
type Tree struct {
	// Root is the root node.
	Root *Node
	// NumClasses is the number of distinct class labels seen at fit time.
	NumClasses int
	// Features are the column names the tree may split on.
	Features []string
}

// Fit grows a CART tree on the named feature columns of t, predicting the
// integer labels (0..numClasses-1; negative labels are ignored). Numeric
// and boolean columns get threshold splits, categorical columns get
// one-vs-rest equality splits. Missing values route to the right child
// (predicates never match nulls). It is a fit in a fresh Scratch.
func Fit(t *store.Table, features []string, labels []int, numClasses int, opts Options) (*Tree, error) {
	return new(Scratch).Fit(t, features, labels, numClasses, opts)
}

// Scratch is the storage fits work in, kept for the next fit: SLIQ's
// presorted attribute lists (Mehta, Agrawal & Rissanen 1996). Every
// numeric feature's labeled rows are sorted by value once per fit, and
// each split stably partitions every feature's list, so a node's rows
// sit in one segment of each list, in the feature's order. A fitted
// tree references none of it, so a fit allocates only its nodes once
// the scratch has grown to the largest fit made in it. The zero value
// is ready; a Scratch is not safe for concurrent use.
type Scratch struct {
	// ids holds one list of the m labeled rows per numeric feature,
	// ids[i*m:(i+1)*m] for list i: list 0 in row order, feature list
	// i > 0 in ascending value with its missing rows (null or NaN) in a
	// tail. A node's rows are positions [lo, hi) of every list.
	ids []int32
	// side holds, per row, whether the split being made sends it left;
	// tmp is the stable partition's buffer for the rows sent right.
	side []bool
	tmp  []int32
	// keys is the presort's buffer: one feature's values and rows.
	keys []key
	// left and right are a sweep's per-class counts.
	left, right []int
	// slots maps a categorical feature's dictionary code to its entry
	// in levels, whose per-class counts are counts[slot*k:(slot+1)*k].
	slots  map[int32]int
	levels []level
	counts []int
	feats  []feature
}

// feature is a feature column resolved for one fit.
type feature struct {
	col store.Column
	// fc is col when it is a *store.FloatColumn, read without the
	// interface call; str is col when it is categorical.
	fc  *store.FloatColumn
	str *store.StringColumn
	// list is a numeric feature's presorted list in Scratch.ids.
	list int
}

// value returns row r of a numeric feature as Column.Float reads it:
// NaN for a null.
func (f *feature) value(r int32) float64 {
	if f.fc != nil {
		return f.fc.Value(int(r))
	}
	return f.col.Float(int(r))
}

// key is a row and its value, as the presort sorts them.
type key struct {
	v float64
	r int32
}

// level is one value of a categorical feature at a node: its dictionary
// code, its slot in Scratch.counts and its row count.
type level struct {
	code int32
	slot int
	n    int
}

// Fit is the package-level Fit, grown in the scratch's storage.
func (s *Scratch) Fit(t *store.Table, features []string, labels []int, numClasses int, opts Options) (*Tree, error) {
	opts.defaults()
	if t.NumRows() != len(labels) {
		return nil, fmt.Errorf("tree: %d rows but %d labels", t.NumRows(), len(labels))
	}
	if t.NumRows() > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d rows exceed the int32 row ids", t.NumRows())
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("tree: numClasses = %d", numClasses)
	}
	// The features hold the table's columns: the fit drops them, so the
	// scratch keeps no table alive.
	s.feats = s.feats[:0]
	defer func() { clear(s.feats) }()
	lists := 1
	for _, name := range features {
		col := t.ColumnByName(name)
		if col == nil {
			return nil, fmt.Errorf("tree: feature %q not in table", name)
		}
		f := feature{col: col}
		if col.Type() == store.String {
			str, ok := col.(*store.StringColumn)
			if !ok {
				return nil, fmt.Errorf("tree: string feature %q is not a dictionary column", name)
			}
			f.str = str
		} else {
			f.fc, _ = col.(*store.FloatColumn)
			f.list = lists
			lists++
		}
		s.feats = append(s.feats, f)
	}
	m := 0
	for _, l := range labels {
		if l >= 0 && l < numClasses {
			m++
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("tree: no labeled rows")
	}
	s.grow(lists*m, t.NumRows(), numClasses)
	rows := s.ids[:0]
	for i, l := range labels {
		if l >= 0 && l < numClasses {
			rows = append(rows, int32(i))
		}
	}
	g := &grower{Scratch: s, labels: labels, k: numClasses, opts: opts, m: m}
	for i := range s.feats {
		if s.feats[i].str == nil {
			g.presort(&s.feats[i], rows)
		}
	}
	root := g.node(0, m, 0)
	return &Tree{Root: root, NumClasses: numClasses, Features: features}, nil
}

// grow sizes the scratch for a fit of ids list entries over n rows and
// k classes.
func (s *Scratch) grow(ids, n, k int) {
	s.ids, s.side, s.tmp, s.keys = resize(s.ids, ids), resize(s.side, n), resize(s.tmp, n), resize(s.keys, n)
	s.left, s.right = resize(s.left, k), resize(s.right, k)
	if s.slots == nil {
		s.slots = make(map[int32]int)
	}
}

// resize returns buf at length n, reallocated only when it is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// grower is one fit in a Scratch.
type grower struct {
	*Scratch
	labels []int
	k      int
	opts   Options
	m      int // labeled rows: the length of every list
}

// list returns positions [lo, hi) of list i.
func (g *grower) list(i, lo, hi int) []int32 {
	return g.ids[i*g.m+lo : i*g.m+hi]
}

// presort fills f's list with rows, ascending by value, the rows
// missing a value (null or NaN) in a tail in row order. The values are
// read once, into the keys the sort moves.
func (g *grower) presort(f *feature, rows []int32) {
	list := g.list(f.list, 0, g.m)
	keys, tail := g.keys[:0], g.tmp[:0]
	for _, r := range rows {
		if v := f.value(r); math.IsNaN(v) {
			tail = append(tail, r)
		} else {
			keys = append(keys, key{v, r})
		}
	}
	// Equal values may land in any order: the sweep never cuts between
	// them, so the counts at every cut are the same. No key is NaN.
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	for i, k := range keys {
		list[i] = k.r
	}
	copy(list[len(keys):], tail)
}

// split is a node's best split found so far; f is nil until one is.
type split struct {
	f      *feature
	gain   float64
	thresh float64 // a numeric split's: value < thresh goes left
	code   int32   // a categorical split's: this level goes left
	nulls  int     // rows at the node missing the feature's value
}

// predicate returns the split as the predicate routing rows left.
func (sp *split) predicate() store.Predicate {
	if sp.f.str != nil {
		return store.StrEq{Col: sp.f.col.Name(), Val: sp.f.str.Dict()[sp.code]}
	}
	return store.NumCmp{Col: sp.f.col.Name(), Op: store.Lt, Val: sp.thresh}
}

// node grows the subtree over positions [lo, hi) of the lists.
func (g *grower) node(lo, hi, depth int) *Node {
	rows := g.list(0, lo, hi)
	counts := make([]int, g.k)
	for _, r := range rows {
		counts[g.labels[r]]++
	}
	node := &Node{
		Class:    majority(counts),
		N:        len(rows),
		Counts:   counts,
		Impurity: gini(counts, len(rows)),
	}
	if depth >= g.opts.MaxDepth || len(rows) < 2*g.opts.MinLeaf || node.Impurity == 0 {
		return node
	}
	var best split
	for i := range g.feats {
		if f := &g.feats[i]; f.str != nil {
			g.bestCategorical(f, rows, node, &best)
		} else {
			g.bestNumeric(f, lo, hi, node, &best)
		}
	}
	if best.f == nil || best.gain < minImpurityDecrease {
		return node
	}
	nLeft := g.mark(&best, rows)
	if nLeft < g.opts.MinLeaf || len(rows)-nLeft < g.opts.MinLeaf {
		return node
	}
	node.Split = best.predicate()
	node.SplitMissing = best.nulls > 0
	for i := range len(g.ids) / g.m {
		g.partition(g.list(i, lo, hi))
	}
	node.Left = g.node(lo, lo+nLeft, depth+1)
	node.Right = g.node(lo+nLeft, hi, depth+1)
	return node
}

// mark sets the side of every row at the node to whether the split
// sends it left, the way store.Route evaluates the split's predicate,
// and returns how many go left.
func (g *grower) mark(sp *split, rows []int32) int {
	n := 0
	for _, r := range rows {
		var left bool
		if sp.f.str != nil {
			left = sp.f.str.Code(int(r)) == sp.code
		} else {
			left = sp.f.value(r) < sp.thresh // false for a null's NaN
		}
		g.side[r] = left
		if left {
			n++
		}
	}
	return n
}

// partition moves the rows of seg going left to its front, and the
// rest behind them, each in its order.
func (g *grower) partition(seg []int32) {
	n, right := 0, g.tmp[:0]
	for _, r := range seg {
		if g.side[r] {
			seg[n] = r
			n++
		} else {
			right = append(right, r)
		}
	}
	copy(seg[n:], right)
}

// bestNumeric sweeps f's presorted segment at the node for the
// threshold minimizing weighted child impurity, and makes it best when
// it gains more. Missing rows (null or NaN) fail every threshold, so
// they count right at every cut.
func (g *grower) bestNumeric(f *feature, lo, hi int, node *Node, best *split) {
	seg := g.list(f.list, lo, hi)
	end, nulls := len(seg), 0
	for ; end > 0 && math.IsNaN(f.value(seg[end-1])); end-- {
		if f.col.IsNull(int(seg[end-1])) {
			nulls++
		}
	}
	if end < 2*g.opts.MinLeaf {
		return
	}
	left, right := g.left, g.right
	clear(left)
	copy(right, node.Counts)
	total := len(seg)
	gain, thresh := 0.0, math.NaN()
	v := f.value(seg[0])
	for i := 0; i < end-1; i++ {
		l := g.labels[seg[i]]
		left[l]++
		right[l]--
		next := f.value(seg[i+1])
		if v == next {
			continue // can't cut between equal values
		}
		nLeft := i + 1
		nRight := total - nLeft
		w := node.Impurity - (float64(nLeft)*gini(left, nLeft)+float64(nRight)*gini(right, nRight))/float64(total)
		if w > gain {
			gain, thresh = w, cut(v, next)
		}
		v = next
	}
	if !math.IsNaN(thresh) && gain > best.gain {
		*best = split{f: f, gain: gain, thresh: thresh, nulls: nulls}
	}
}

// cut is the threshold x < cut that separates neighbouring values
// v < next as the sweep scored them: their midpoint when it lies
// strictly above v and not above next, else next. The midpoint fails
// that for an infinite v (it is -Inf, or NaN against +Inf), for
// adjacent floats (it rounds onto v) and for a sum that overflows (it
// is +Inf).
func cut(v, next float64) float64 {
	if m := (v + next) / 2; v < m && m <= next {
		return m
	}
	return next
}

// bestCategorical tries one-vs-rest equality splits on the most
// frequent levels of f at the node, and makes the best one best when it
// gains more. The per-class counts of every level come from one pass.
func (g *grower) bestCategorical(f *feature, rows []int32, node *Node, best *split) {
	clear(g.slots)
	levels, counts, nulls := g.levels[:0], g.counts[:0], 0
	for _, r := range rows {
		code := f.str.Code(int(r))
		if code < 0 {
			nulls++
			continue
		}
		slot, ok := g.slots[code]
		if !ok {
			slot = len(levels)
			g.slots[code] = slot
			levels = append(levels, level{code: code, slot: slot})
			for range g.k {
				counts = append(counts, 0)
			}
		}
		levels[slot].n++
		counts[slot*g.k+g.labels[r]]++
	}
	g.levels, g.counts = levels, counts
	if len(levels) < 2 {
		return
	}
	dict := f.str.Dict()
	slices.SortFunc(levels, func(a, b level) int {
		if a.n != b.n {
			return b.n - a.n
		}
		return strings.Compare(dict[a.code], dict[b.code])
	})
	if len(levels) > maxCategories {
		levels = levels[:maxCategories]
	}
	total := len(rows)
	right := g.right
	gain, code := 0.0, int32(-1)
	for _, lv := range levels {
		left := counts[lv.slot*g.k : (lv.slot+1)*g.k]
		for c := range right {
			right[c] = node.Counts[c] - left[c]
		}
		nLeft, nRight := lv.n, total-lv.n // both > 0: two or more levels, each with a row
		w := node.Impurity - (float64(nLeft)*gini(left, nLeft)+float64(nRight)*gini(right, nRight))/float64(total)
		if w > gain {
			gain, code = w, lv.code
		}
	}
	if code >= 0 && gain > best.gain {
		*best = split{f: f, gain: gain, code: code, nulls: nulls}
	}
}

// gini is the Gini impurity of a node with the per-class counts.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	fn := float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		sum += p * p
	}
	return 1 - sum
}

func majority(counts []int) int {
	best, bestC := 0, -1
	for cls, c := range counts {
		if c > bestC {
			best, bestC = cls, c
		}
	}
	return best
}

// splitColumn returns the column a split predicate tests.
func splitColumn(p store.Predicate) string {
	switch q := p.(type) {
	case store.NumCmp:
		return q.Col
	case store.StrEq:
		return q.Col
	default:
		return ""
	}
}

// Splits returns the subtree under n as the split tree store.Route
// routes through, with its nodes in the same (preorder) order.
func (n *Node) Splits() (store.SplitTree, []*Node) {
	var splits store.SplitTree
	var nodes []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		i := len(splits)
		splits = append(splits, store.SplitNode{})
		nodes = append(nodes, n)
		if n.IsLeaf() {
			return
		}
		walk(n.Left)
		splits[i] = store.SplitNode{Split: n.Split, No: len(splits) - i}
		walk(n.Right)
	}
	walk(n)
	return splits, nodes
}

// route sends rows of t down the tree in one store.Route pass and
// calls leaf with every leaf some row reaches and the rows that reach
// it; only the leaves' rows are built.
func route(t *store.Table, n *Node, rows *store.RowSet, leaf func(n *Node, rows *store.RowSet)) {
	splits, nodes := n.Splits()
	rt := store.Route(t, splits, rows)
	for i, nd := range nodes {
		if nd.IsLeaf() && rt.Count(i) > 0 {
			leaf(nd, rt.Rows(i))
		}
	}
}

// Predict returns the predicted class for row i of t.
func (tr *Tree) Predict(t *store.Table, i int) int {
	class := 0
	route(t, tr.Root, store.RowsOf([]int{i}), func(n *Node, _ *store.RowSet) { class = n.Class })
	return class
}

// PredictAll classifies every row of t.
func (tr *Tree) PredictAll(t *store.Table) []int {
	out := make([]int, t.NumRows())
	route(t, tr.Root, store.All(t.NumRows()), func(n *Node, rows *store.RowSet) {
		rows.Each(func(r int) { out[r] = n.Class })
	})
	return out
}

// Accuracy returns the fraction of rows whose prediction matches labels
// (rows with negative labels are skipped).
func (tr *Tree) Accuracy(t *store.Table, labels []int) float64 {
	rows := make([]int, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		if labels[i] >= 0 {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return 0
	}
	hit := 0
	route(t, tr.Root, store.RowsOf(rows), func(n *Node, rows *store.RowSet) {
		rows.Each(func(r int) {
			if labels[r] == n.Class {
				hit++
			}
		})
	})
	return float64(hit) / float64(len(rows))
}

// FitAccuracy is Accuracy on the training rows, read off the tree: a
// leaf's training rows are the rows it routes, so it predicts the
// Counts[Class] of them that carry its class. It takes no pass over
// any rows.
func (tr *Tree) FitAccuracy() float64 {
	hit := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			hit += n.Counts[n.Class]
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
	return float64(hit) / float64(tr.Root.N)
}

// NumLeaves returns the number of leaves.
func (tr *Tree) NumLeaves() int { return countLeaves(tr.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the depth of the tree (root-only tree has depth 0).
func (tr *Tree) Depth() int { return nodeDepth(tr.Root) }

func nodeDepth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}
