package tree

import (
	"math/rand"
	"testing"

	"repro/internal/store"
)

// nullyTable builds a three-class table whose every feature has nulls:
// two numeric columns that separate the classes with noise and a
// categorical one, so fitted trees split on all of them and some
// training rows miss every split column.
func nullyTable(n int, seed int64) (*store.Table, []int) {
	rng := rand.New(rand.NewSource(seed))
	x, y, s := store.NewFloatColumn("x"), store.NewFloatColumn("y"), store.NewStringColumn("s")
	labels := make([]int, n)
	levels := []string{"red", "green", "blue"}
	for i := range labels {
		l := rng.Intn(3)
		labels[i] = l
		if rng.Float64() < 0.15 {
			x.AppendNull()
		} else {
			x.Append(float64(l)*4 + rng.NormFloat64())
		}
		if rng.Float64() < 0.10 {
			y.AppendNull()
		} else {
			y.Append(float64((l+1)%3)*3 + rng.NormFloat64()*1.5)
		}
		if rng.Float64() < 0.20 {
			s.AppendNull()
		} else if rng.Float64() < 0.8 {
			s.Append(levels[l])
		} else {
			s.Append(levels[rng.Intn(3)])
		}
	}
	tab := store.NewTable("nully")
	tab.MustAddColumn(x)
	tab.MustAddColumn(y)
	tab.MustAddColumn(s)
	return tab, labels
}

// TestFitWithNullsPinned pins the tree fitted on columns with nulls
// against the output recorded before bestNumericSplit's missing-class
// counts were hoisted out of the threshold sweep: the hoist removes
// O(n²) IsNull calls per feature per node and must not move a split.
func TestFitWithNullsPinned(t *testing.T) {
	tab, labels := nullyTable(400, 9)
	tr, err := Fit(tab, []string{"x", "y", "s"}, labels, 3, Options{MaxDepth: 5, MinLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	const want = `[x < 1.93732]
  yes: => cluster 0 (n=104)
  no:  [x < 6.18288]
    yes: => cluster 1 (n=126)
    no:  [x < 10.169]
      yes: => cluster 2 (n=113)
      no:  [y < 0.765334]
        yes: => cluster 2 (n=12)
        no:  [s = 'green']
          yes: => cluster 1 (n=14)
          no:  => cluster 0 (n=31)
`
	if got := tr.Render(); got != want {
		t.Fatalf("tree over null-bearing columns moved:\n%s\nwant:\n%s", got, want)
	}
}

// referencePredict routes row i by the reference semantics: the
// interpretive Predicate.Matches at every level.
func referencePredict(tr *Tree, t *store.Table, i int) int {
	n := tr.Root
	for !n.IsLeaf() {
		if n.Split.Matches(t, i) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// TestRoutingMatchesReference pins Predict, PredictAll and Accuracy —
// which route rows through one compiled matcher per node — against
// per-row Matches routing, on a tree with numeric, categorical and
// null-routing splits and with unlabeled rows in the mix.
func TestRoutingMatchesReference(t *testing.T) {
	tab, labels := nullyTable(400, 9)
	tr, err := Fit(tab, []string{"x", "y", "s"}, labels, 3, Options{MaxDepth: 4, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() < 2 {
		t.Fatalf("tree too shallow to exercise routing: depth %d", tr.Depth())
	}
	for i := 0; i < len(labels); i += 7 {
		labels[i] = -1
	}
	all := tr.PredictAll(tab)
	n, hit := 0, 0
	for i := range labels {
		want := referencePredict(tr, tab, i)
		if all[i] != want {
			t.Fatalf("PredictAll[%d] = %d, reference %d", i, all[i], want)
		}
		if got := tr.Predict(tab, i); got != want {
			t.Fatalf("Predict(%d) = %d, reference %d", i, got, want)
		}
		if labels[i] >= 0 {
			n++
			if want == labels[i] {
				hit++
			}
		}
	}
	if got, want := tr.Accuracy(tab, labels), float64(hit)/float64(n); got != want {
		t.Fatalf("Accuracy = %v, reference %v", got, want)
	}
}
