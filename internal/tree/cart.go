// Package tree implements CART classification trees (Breiman, Friedman,
// Stone & Olshen 1984), the cluster-description stage of Blaeu's mapping
// pipeline (paper Fig. 3): a tree is trained on the original tuples with
// cluster IDs as class labels, turning opaque clusters into interpretable
// predicates such as "AverageIncome >= 22".
package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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
// (predicates never match nulls).
func Fit(t *store.Table, features []string, labels []int, numClasses int, opts Options) (*Tree, error) {
	opts.defaults()
	if t.NumRows() != len(labels) {
		return nil, fmt.Errorf("tree: %d rows but %d labels", t.NumRows(), len(labels))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("tree: numClasses = %d", numClasses)
	}
	for _, f := range features {
		if t.ColumnByName(f) == nil {
			return nil, fmt.Errorf("tree: feature %q not in table", f)
		}
	}
	rows := make([]int, 0, len(labels))
	for i, l := range labels {
		if l >= 0 && l < numClasses {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tree: no labeled rows")
	}
	g := &grower{t: t, features: features, labels: labels, k: numClasses, opts: opts,
		left: make([]int, numClasses), right: make([]int, numClasses), missing: make([]int, numClasses)}
	root := g.grow(rows, 0)
	return &Tree{Root: root, NumClasses: numClasses, Features: features}, nil
}

type grower struct {
	t        *store.Table
	features []string
	labels   []int
	k        int
	opts     Options

	// Scratch of bestNumericSplit, reused across features and nodes:
	// the (value, label) points of the feature under test and the
	// per-class counts of the threshold sweep.
	pts                  []point
	left, right, missing []int
}

// point is one non-null value of the feature under test with its row's
// label.
type point struct {
	v float64
	l int
}

func (g *grower) counts(rows []int) []int {
	c := make([]int, g.k)
	for _, r := range rows {
		c[g.labels[r]]++
	}
	return c
}

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

func (g *grower) grow(rows []int, depth int) *Node {
	counts := g.counts(rows)
	node := &Node{
		Class:    majority(counts),
		N:        len(rows),
		Counts:   counts,
		Impurity: gini(counts, len(rows)),
	}
	if depth >= g.opts.MaxDepth || len(rows) < 2*g.opts.MinLeaf || node.Impurity == 0 {
		return node
	}
	split, gain := g.bestSplit(rows, node.Impurity)
	if split == nil || gain < minImpurityDecrease {
		return node
	}
	left, right := store.PartitionRows(g.t, split, rows)
	if len(left) < g.opts.MinLeaf || len(right) < g.opts.MinLeaf {
		return node
	}
	node.Split = split
	if col := g.t.ColumnByName(splitColumn(split)); col != nil {
		for _, r := range rows {
			if col.IsNull(r) {
				node.SplitMissing = true
				break
			}
		}
	}
	node.Left = g.grow(left, depth+1)
	node.Right = g.grow(right, depth+1)
	return node
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

// bestSplit scans every feature for the split with maximal Gini gain.
func (g *grower) bestSplit(rows []int, parentImpurity float64) (store.Predicate, float64) {
	var best store.Predicate
	bestGain := 0.0
	for _, f := range g.features {
		col := g.t.ColumnByName(f)
		var p store.Predicate
		var gain float64
		if col.Type() == store.String {
			p, gain = g.bestCategoricalSplit(col.(*store.StringColumn), rows, parentImpurity)
		} else {
			p, gain = g.bestNumericSplit(col, rows, parentImpurity)
		}
		if p != nil && gain > bestGain {
			best, bestGain = p, gain
		}
	}
	return best, bestGain
}

// bestNumericSplit finds the threshold minimizing weighted child impurity
// in one sorted sweep.
func (g *grower) bestNumericSplit(col store.Column, rows []int, parentImpurity float64) (store.Predicate, float64) {
	leftCounts, rightCounts, missingCounts := g.left, g.right, g.missing
	clear(leftCounts)
	clear(rightCounts)
	clear(missingCounts)
	pts := g.pts[:0]
	// Missing rows go right at every threshold (they fail predicates),
	// so their per-class counts are taken once, here, not in the sweep.
	missing := 0
	for _, r := range rows {
		if col.IsNull(r) {
			missingCounts[g.labels[r]]++
			missing++
			continue
		}
		pts = append(pts, point{col.Float(r), g.labels[r]})
	}
	g.pts = pts
	if len(pts) < 2*g.opts.MinLeaf {
		return nil, 0
	}
	// Equal values may land in any order: the sweep never cuts between
	// them, so the counts at every cut are the same.
	slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.v, b.v) })

	for _, p := range pts {
		rightCounts[p.l]++
	}
	total := len(rows)
	nLeft := 0
	nRight := len(pts)
	bestGain, bestThresh := 0.0, math.NaN()
	for i := 0; i < len(pts)-1; i++ {
		leftCounts[pts[i].l]++
		rightCounts[pts[i].l]--
		nLeft++
		nRight--
		if pts[i].v == pts[i+1].v {
			continue // can't cut between equal values
		}
		// Weighted impurity; missing rows go right (they fail predicates).
		gl := gini(leftCounts, nLeft)
		gr := giniWithExtra(rightCounts, nRight, missing, missingCounts)
		w := parentImpurity - (float64(nLeft)*gl+float64(nRight+missing)*gr)/float64(total)
		if w > bestGain {
			bestGain = w
			bestThresh = (pts[i].v + pts[i+1].v) / 2
		}
	}
	if math.IsNaN(bestThresh) {
		return nil, 0
	}
	return store.NumCmp{Col: col.Name(), Op: store.Lt, Val: bestThresh}, bestGain
}

// giniWithExtra is gini over counts[i]+extra[i] and n+extraN.
func giniWithExtra(counts []int, n, extraN int, extra []int) float64 {
	if extraN == 0 {
		return gini(counts, n)
	}
	sum := 0.0
	fn := float64(n + extraN)
	for i, c := range counts {
		p := float64(c+extra[i]) / fn
		sum += p * p
	}
	return 1 - sum
}

// bestCategoricalSplit tries one-vs-rest equality splits on the most
// frequent levels.
func (g *grower) bestCategoricalSplit(col *store.StringColumn, rows []int, parentImpurity float64) (store.Predicate, float64) {
	freq := make(map[string]int)
	for _, r := range rows {
		if !col.IsNull(r) {
			freq[col.Value(r)]++
		}
	}
	if len(freq) < 2 {
		return nil, 0
	}
	levels := make([]string, 0, len(freq))
	for v := range freq {
		levels = append(levels, v)
	}
	sort.Slice(levels, func(i, j int) bool {
		if freq[levels[i]] != freq[levels[j]] {
			return freq[levels[i]] > freq[levels[j]]
		}
		return levels[i] < levels[j]
	})
	if len(levels) > maxCategories {
		levels = levels[:maxCategories]
	}
	total := len(rows)
	var best store.Predicate
	bestGain := 0.0
	for _, lv := range levels {
		leftCounts := make([]int, g.k)
		rightCounts := make([]int, g.k)
		nLeft, nRight := 0, 0
		for _, r := range rows {
			if !col.IsNull(r) && col.Value(r) == lv {
				leftCounts[g.labels[r]]++
				nLeft++
			} else {
				rightCounts[g.labels[r]]++
				nRight++
			}
		}
		if nLeft == 0 || nRight == 0 {
			continue
		}
		w := parentImpurity - (float64(nLeft)*gini(leftCounts, nLeft)+float64(nRight)*gini(rightCounts, nRight))/float64(total)
		if w > bestGain {
			bestGain = w
			best = store.StrEq{Col: col.Name(), Val: lv}
		}
	}
	return best, bestGain
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
