package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

// TestTreeInvariantsProperty grows trees on random mixed data and checks
// structural invariants: counts are conserved down the tree, every row
// matches exactly one leaf's condition path, path classes agree with
// predictions, depth and leaf bounds hold.
func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64, kRaw, depthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(140)
		k := 2 + int(kRaw)%3
		maxDepth := 1 + int(depthRaw)%4

		tab := store.NewTable("p")
		x := store.NewFloatColumn("x")
		c := store.NewStringColumn("c")
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				x.AppendNull()
			} else {
				x.Append(rng.NormFloat64() * 3)
			}
			c.Append([]string{"a", "b", "c", "d"}[rng.Intn(4)])
			labels[i] = rng.Intn(k)
		}
		tab.MustAddColumn(x)
		tab.MustAddColumn(c)

		tr, err := Fit(tab, []string{"x", "c"}, labels, k, Options{MaxDepth: maxDepth, MinLeaf: 4})
		if err != nil {
			return false
		}
		if tr.Depth() > maxDepth {
			return false
		}
		// Counts conserved: each internal node's N = sum of children N.
		var ok = true
		var walk func(nd *Node)
		walk = func(nd *Node) {
			if nd.IsLeaf() {
				return
			}
			if nd.Left.N+nd.Right.N != nd.N {
				ok = false
			}
			walk(nd.Left)
			walk(nd.Right)
		}
		walk(tr.Root)
		if !ok {
			return false
		}
		// Leaf paths partition all rows and agree with predictions.
		paths := leafPaths(tr)
		if len(paths) != tr.NumLeaves() {
			return false
		}
		for i := 0; i < n; i++ {
			matches, cls := 0, -1
			for _, p := range paths {
				if p.cond.Matches(tab, i) {
					matches++
					cls = p.class
				}
			}
			if matches != 1 || cls != tr.Predict(tab, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPruneNeverChangesPredictionsProperty: pruning only collapses splits
// whose children agree, so predictions are identical before and after.
func TestPruneNeverChangesPredictionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 80 + rng.Intn(80)
		tab := store.NewTable("p")
		x := store.NewFloatColumn("x")
		y := store.NewFloatColumn("y")
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			x.Append(rng.NormFloat64())
			y.Append(rng.NormFloat64())
			labels[i] = rng.Intn(2)
		}
		tab.MustAddColumn(x)
		tab.MustAddColumn(y)
		tr, err := Fit(tab, []string{"x", "y"}, labels, 2, Options{MaxDepth: 4, MinLeaf: 3})
		if err != nil {
			return false
		}
		before := tr.PredictAll(tab)
		tr.Prune()
		after := tr.PredictAll(tab)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
