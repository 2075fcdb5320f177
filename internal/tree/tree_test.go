package tree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// axisData builds a table where the label is determined by axis-aligned
// thresholds: class 0 when x < 5, else class 1 when y < 3, else class 2.
func axisData(n int, rng *rand.Rand) (*store.Table, []int) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 10
		ys[i] = rng.Float64() * 6
		switch {
		case xs[i] < 5:
			labels[i] = 0
		case ys[i] < 3:
			labels[i] = 1
		default:
			labels[i] = 2
		}
	}
	t := store.NewTable("axis")
	t.MustAddColumn(store.NewFloatColumnFrom("x", xs))
	t.MustAddColumn(store.NewFloatColumnFrom("y", ys))
	return t, labels
}

func TestFitAxisAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab, labels := axisData(1000, rng)
	tr, err := Fit(tab, []string{"x", "y"}, labels, 3, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tr.Accuracy(tab, labels); acc < 0.98 {
		t.Errorf("accuracy = %.3f, want >= 0.98", acc)
	}
	if tr.Depth() > 3 {
		t.Errorf("depth = %d exceeds max", tr.Depth())
	}
	// The root split should be near x=5 (the dominant boundary).
	root := tr.Root.Split.(store.NumCmp)
	if root.Col != "x" || root.Val < 4 || root.Val > 6 {
		t.Errorf("root split = %v, want x near 5", root)
	}
}

func TestFitCategorical(t *testing.T) {
	n := 600
	rng := rand.New(rand.NewSource(2))
	cats := make([]string, n)
	noise := make([]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := []string{"red", "green", "blue"}[rng.Intn(3)]
		cats[i] = c
		noise[i] = rng.Float64()
		if c == "red" {
			labels[i] = 0
		} else {
			labels[i] = 1
		}
	}
	tab := store.NewTable("cat")
	tab.MustAddColumn(store.NewStringColumnFrom("color", cats))
	tab.MustAddColumn(store.NewFloatColumnFrom("noise", noise))
	tr, err := Fit(tab, []string{"color", "noise"}, labels, 2, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tr.Accuracy(tab, labels); acc < 0.99 {
		t.Errorf("accuracy = %.3f", acc)
	}
	root, ok := tr.Root.Split.(store.StrEq)
	if !ok || root.Col != "color" || root.Val != "red" {
		t.Errorf("root split = %v, want color = 'red'", tr.Root.Split)
	}
}

func TestFitErrors(t *testing.T) {
	tab := store.NewTable("t")
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2}))
	if _, err := Fit(tab, []string{"x"}, []int{0}, 2, Options{}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := Fit(tab, []string{"zzz"}, []int{0, 1}, 2, Options{}); err == nil {
		t.Error("unknown feature should fail")
	}
	if _, err := Fit(tab, []string{"x"}, []int{0, 1}, 0, Options{}); err == nil {
		t.Error("zero classes should fail")
	}
	if _, err := Fit(tab, []string{"x"}, []int{-1, -1}, 2, Options{}); err == nil {
		t.Error("all-unlabeled should fail")
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab, labels := axisData(200, rng)
	tr, err := Fit(tab, []string{"x", "y"}, labels, 3, Options{MaxDepth: 10, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if n.N < 30 {
				t.Errorf("leaf with %d tuples violates MinLeaf", n.N)
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
}

func TestPureNodeStops(t *testing.T) {
	tab := store.NewTable("t")
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))
	labels := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	tr, err := Fit(tab, []string{"x"}, labels, 2, Options{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() {
		t.Error("pure input should give a single leaf")
	}
	if tr.Root.Impurity != 0 {
		t.Error("pure node impurity should be 0")
	}
}

func TestMissingValuesRouteRight(t *testing.T) {
	x := store.NewFloatColumn("x")
	labels := make([]int, 0, 40)
	for i := 0; i < 20; i++ {
		x.Append(float64(i))
		if i < 10 {
			labels = append(labels, 0)
		} else {
			labels = append(labels, 1)
		}
	}
	for i := 0; i < 20; i++ {
		x.AppendNull()
		labels = append(labels, 1) // missing rows all class 1
	}
	tab := store.NewTable("t")
	tab.MustAddColumn(x)
	tr, err := Fit(tab, []string{"x"}, labels, 2, Options{MaxDepth: 2, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A null row must be classified (routes right) without panicking.
	got := tr.Predict(tab, 25)
	if got != 1 {
		t.Errorf("null row predicted %d, want 1", got)
	}
	if acc := tr.Accuracy(tab, labels); acc < 0.9 {
		t.Errorf("accuracy with missing = %.3f", acc)
	}
}

// TestNaNCountsRight: a non-null NaN (a CSV "NAN" cell) fails x < v, so
// the threshold sweep counts it with the rows that go right, as it does
// a null. x < 5 then routes every row correctly and beats y, whose best
// cut misplaces 12 of 105 rows; a sweep that sorted the NaNs first and
// counted them left scored x < 5 below it.
func TestNaNCountsRight(t *testing.T) {
	x, y := store.NewFloatColumn("x"), store.NewFloatColumn("y")
	var labels []int
	add := func(n, label int, xv float64, yBelow int) {
		for i := 0; i < n; i++ {
			x.Append(xv)
			if i < yBelow {
				y.Append(float64(i % 4))
			} else {
				y.Append(float64(4 + i%4))
			}
			labels = append(labels, label)
		}
	}
	add(40, 0, 0, 36)
	add(40, 1, 10, 4)
	add(25, 1, math.NaN(), 4)
	tab := store.NewTable("nan")
	tab.MustAddColumn(x)
	tab.MustAddColumn(y)
	tr, err := Fit(tab, []string{"x", "y"}, labels, 2, Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := (store.NumCmp{Col: "x", Op: store.Lt, Val: 5}); tr.Root.Split != want {
		t.Fatalf("root split = %v, want %v", tr.Root.Split, want)
	}
	if tr.Root.SplitMissing {
		t.Error("SplitMissing set by NaN cells, want nulls only")
	}
	if acc := tr.FitAccuracy(); acc != 1 {
		t.Errorf("FitAccuracy = %g, want 1", acc)
	}
}

// TestCutRoutesAsScored: a cut between neighbouring values v < next
// must route v left and next right, as the sweep counted them. The
// plain midpoint does not when v is -Inf (x < -Inf matches nothing),
// when both are infinite (NaN drops the feature), when the values are
// adjacent floats (it rounds onto v) or when their sum overflows (+Inf
// takes next left too).
func TestCutRoutesAsScored(t *testing.T) {
	rep := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name        string
		left, right []float64
	}{
		{"-Inf against 0..9", rep(math.Inf(-1), 10), []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"-Inf against +Inf", rep(math.Inf(-1), 4), rep(math.Inf(1), 4)},
		{"adjacent floats", rep(1, 4), rep(math.Nextafter(1, 2), 4)},
		{"overflowing sum", rep(1e308, 4), rep(1.7e308, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := store.NewFloatColumnFrom("x", append(slices.Clone(tc.left), tc.right...))
			labels := make([]int, x.Len())
			for i := len(tc.left); i < len(labels); i++ {
				labels[i] = 1
			}
			tab := store.NewTable("cut")
			tab.MustAddColumn(x)
			tr, err := Fit(tab, []string{"x"}, labels, 2, Options{MaxDepth: 1, MinLeaf: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Root.IsLeaf() {
				t.Fatal("the root did not split")
			}
			if acc := tr.Accuracy(tab, labels); acc != 1 {
				t.Errorf("root split %v: accuracy %g, want 1", tr.Root.Split, acc)
			}
		})
	}
}

// leafPath is one leaf's condition path from the root: each node's Split
// on the way left, its Complement on the way right — how a data map
// spells a region's condition.
type leafPath struct {
	cond  store.And
	class int
}

func leafPaths(tr *Tree) []leafPath {
	var out []leafPath
	var walk func(n *Node, path store.And)
	walk = func(n *Node, path store.And) {
		if n.IsLeaf() {
			out = append(out, leafPath{append(store.And(nil), path...), n.Class})
			return
		}
		walk(n.Left, append(path, n.Split))
		walk(n.Right, append(path, Complement(n.Split, n.SplitMissing)))
	}
	walk(tr.Root, nil)
	return out
}

func TestRulesPartitionSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab, labels := axisData(800, rng)
	tr, err := Fit(tab, []string{"x", "y"}, labels, 3, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	paths := leafPaths(tr)
	if len(paths) != tr.NumLeaves() {
		t.Fatalf("%d paths for %d leaves", len(paths), tr.NumLeaves())
	}
	// Every row must match exactly one leaf's path, and that leaf's class
	// must equal the tree's prediction.
	for i := 0; i < tab.NumRows(); i++ {
		matches := 0
		var cls int
		for _, p := range paths {
			if p.cond.Matches(tab, i) {
				matches++
				cls = p.class
			}
		}
		if matches != 1 {
			t.Fatalf("row %d matches %d paths, want exactly 1", i, matches)
		}
		if cls != tr.Predict(tab, i) {
			t.Fatalf("path class disagrees with prediction at row %d", i)
		}
	}
}

func TestPrune(t *testing.T) {
	// Build a tree by hand with a useless split.
	tr := &Tree{
		NumClasses: 2,
		Root: &Node{
			Split: store.NumCmp{Col: "x", Op: store.Lt, Val: 5},
			Left:  &Node{Class: 1, N: 5, Counts: []int{2, 3}},
			Right: &Node{Class: 1, N: 5, Counts: []int{1, 4}},
			Class: 1, N: 10, Counts: []int{3, 7},
		},
	}
	if n := tr.Prune(); n != 1 {
		t.Fatalf("pruned %d nodes, want 1", n)
	}
	if !tr.Root.IsLeaf() {
		t.Error("root should be a leaf after pruning")
	}
	// Pruning is idempotent.
	if n := tr.Prune(); n != 0 {
		t.Error("second prune should collapse nothing")
	}
}

func TestPruneCascades(t *testing.T) {
	leaf := func(c int) *Node { return &Node{Class: c, N: 4, Counts: []int{4, 0}} }
	tr := &Tree{
		NumClasses: 2,
		Root: &Node{
			Split: store.NumCmp{Col: "x", Op: store.Lt, Val: 1},
			Left: &Node{
				Split: store.NumCmp{Col: "x", Op: store.Lt, Val: 0},
				Left:  leaf(0), Right: leaf(0),
				Class: 0, N: 8, Counts: []int{8, 0},
			},
			Right: leaf(0),
			Class: 0, N: 12, Counts: []int{12, 0},
		},
	}
	// One pass collapses bottom-up: inner node first, then root.
	if n := tr.Prune(); n != 2 {
		t.Errorf("pruned %d nodes, want 2 (cascade)", n)
	}
	if !tr.Root.IsLeaf() {
		t.Error("tree should collapse to a single leaf")
	}
}

func TestComplement(t *testing.T) {
	n := Complement(store.NumCmp{Col: "x", Op: store.Lt, Val: 3}, false)
	if n.String() != "x >= 3" {
		t.Errorf("negated = %s", n)
	}
	s := Complement(store.StrEq{Col: "c", Val: "a"}, false)
	if s.String() != "c <> 'a'" {
		t.Errorf("negated = %s", s)
	}
	w := Complement(store.True{}, false)
	if _, ok := w.(store.Not); !ok {
		t.Error("fallback should wrap in Not")
	}
	// With missing values the complement must also match nulls.
	m := Complement(store.NumCmp{Col: "x", Op: store.Lt, Val: 3}, true)
	on, ok := m.(store.OrNull)
	if !ok || on.Col != "x" {
		t.Fatalf("missing complement = %T %v", m, m)
	}
	if m.String() != "(x >= 3 OR x IS NULL)" {
		t.Errorf("string = %s", m)
	}
	tab := store.NewTable("t")
	c := store.NewFloatColumn("x")
	c.Append(5)
	c.AppendNull()
	c.Append(1)
	tab.MustAddColumn(c)
	if got := len(tab.Filter(m)); got != 2 { // 5 and null
		t.Errorf("OrNull matched %d rows, want 2", got)
	}
}

func TestDepthAndLeaves(t *testing.T) {
	leaf := &Node{Class: 0}
	if nodeDepth(leaf) != 0 || countLeaves(leaf) != 1 {
		t.Error("single leaf metrics wrong")
	}
	tr := &Tree{Root: &Node{
		Split: store.True{},
		Left:  leaf,
		Right: &Node{Split: store.True{}, Left: &Node{}, Right: &Node{}},
	}}
	if tr.Depth() != 2 || tr.NumLeaves() != 3 {
		t.Errorf("depth=%d leaves=%d", tr.Depth(), tr.NumLeaves())
	}
}

func TestUnlabeledRowsIgnored(t *testing.T) {
	tab := store.NewTable("t")
	tab.MustAddColumn(store.NewFloatColumnFrom("x", []float64{1, 2, 3, 4, 100, 200, 300, 400, 5, 6, 105, 106}))
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, -1, -1}
	tr, err := Fit(tab, []string{"x"}, labels, 2, Options{MinLeaf: 2, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tr.Accuracy(tab, labels); acc != 1 {
		t.Errorf("accuracy = %g, want 1 (unlabeled skipped)", acc)
	}
}
