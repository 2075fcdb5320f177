package tree

import "repro/internal/store"

// Complement builds the right-branch predicate: the logical complement of
// the split. When the fitted node saw missing values (which route right),
// the complement also matches nulls, so the condition paths of a tree's
// leaves (a data map's regions) partition the data exactly.
func Complement(p store.Predicate, missing bool) store.Predicate {
	var neg store.Predicate
	switch q := p.(type) {
	case store.NumCmp:
		neg = store.NumCmp{Col: q.Col, Op: q.Op.Negate(), Val: q.Val}
	case store.StrEq:
		neg = store.StrEq{Col: q.Col, Val: q.Val, Neq: !q.Neq}
	default:
		return store.Not{P: p} // Not matches exactly the non-matching rows
	}
	if missing {
		return store.OrNull{P: neg, Col: splitColumn(p)}
	}
	return neg
}

// Prune collapses every internal node whose two children are leaves
// predicting the same class (the split adds description complexity but no
// discrimination). It returns the number of nodes collapsed.
func (tr *Tree) Prune() int {
	collapsed := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		walk(n.Left)
		walk(n.Right)
		if n.Left.IsLeaf() && n.Right.IsLeaf() && n.Left.Class == n.Right.Class {
			n.Split, n.Left, n.Right = nil, nil, nil
			collapsed++
		}
	}
	walk(tr.Root)
	return collapsed
}
