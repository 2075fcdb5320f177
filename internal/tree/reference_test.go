package tree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/store"
)

// referenceFit is the sort-per-node grower the presorted one replaced,
// kept verbatim as the reference it is held to: every node collects and
// sorts each numeric feature's values afresh, and splits its rows with
// store.PartitionRows.
func referenceFit(t *store.Table, features []string, labels []int, numClasses int, opts Options) (*Tree, error) {
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
	g := &refGrower{t: t, features: features, labels: labels, k: numClasses, opts: opts,
		left: make([]int, numClasses), right: make([]int, numClasses), missing: make([]int, numClasses)}
	root := g.grow(rows, 0)
	return &Tree{Root: root, NumClasses: numClasses, Features: features}, nil
}

type refGrower struct {
	t        *store.Table
	features []string
	labels   []int
	k        int
	opts     Options

	// Scratch of bestNumericSplit, reused across features and nodes:
	// the (value, label) points of the feature under test and the
	// per-class counts of the threshold sweep.
	pts                  []refPoint
	left, right, missing []int
}

// refPoint is one non-null value of the feature under test with its row's
// label.
type refPoint struct {
	v float64
	l int
}

func (g *refGrower) counts(rows []int) []int {
	c := make([]int, g.k)
	for _, r := range rows {
		c[g.labels[r]]++
	}
	return c
}

func (g *refGrower) grow(rows []int, depth int) *Node {
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

// bestSplit scans every feature for the split with maximal Gini gain.
func (g *refGrower) bestSplit(rows []int, parentImpurity float64) (store.Predicate, float64) {
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
func (g *refGrower) bestNumericSplit(col store.Column, rows []int, parentImpurity float64) (store.Predicate, float64) {
	leftCounts, rightCounts, missingCounts := g.left, g.right, g.missing
	clear(leftCounts)
	clear(rightCounts)
	clear(missingCounts)
	pts := g.pts[:0]
	// Missing rows go right at every threshold (they fail predicates),
	// so their per-class counts are taken once, here, not in the sweep.
	// A non-null NaN fails every comparison too, so it counts with them.
	missing := 0
	for _, r := range rows {
		v := col.Float(r)
		if math.IsNaN(v) {
			missingCounts[g.labels[r]]++
			missing++
			continue
		}
		pts = append(pts, refPoint{v, g.labels[r]})
	}
	g.pts = pts
	if len(pts) < 2*g.opts.MinLeaf {
		return nil, 0
	}
	// Equal values may land in any order: the sweep never cuts between
	// them, so the counts at every cut are the same.
	slices.SortFunc(pts, func(a, b refPoint) int { return cmp.Compare(a.v, b.v) })

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
		gr := refGiniWithExtra(rightCounts, nRight, missing, missingCounts)
		w := parentImpurity - (float64(nLeft)*gl+float64(nRight+missing)*gr)/float64(total)
		if w > bestGain {
			// x < bestThresh must put pts[i] left and pts[i+1] right.
			bestGain = w
			bestThresh = (pts[i].v + pts[i+1].v) / 2
			if !(pts[i].v < bestThresh && bestThresh <= pts[i+1].v) {
				bestThresh = pts[i+1].v
			}
		}
	}
	if math.IsNaN(bestThresh) {
		return nil, 0
	}
	return store.NumCmp{Col: col.Name(), Op: store.Lt, Val: bestThresh}, bestGain
}

// refGiniWithExtra is gini over counts[i]+extra[i] and n+extraN.
func refGiniWithExtra(counts []int, n, extraN int, extra []int) float64 {
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
func (g *refGrower) bestCategoricalSplit(col *store.StringColumn, rows []int, parentImpurity float64) (store.Predicate, float64) {
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

// randomFitCase draws a table of mixed columns and the fit to make on
// it: float columns with ties, nulls, ±Inf and non-null NaN; int, bool
// and string columns (some with more levels than maxCategories);
// labels that follow the last column drawn with noise, some unlabeled or
// out of range; k from 2 to 6, MinLeaf from 1 to 10 and depth from 1 to
// 6.
func randomFitCase(rng *rand.Rand) (tab *store.Table, features []string, labels []int, k int, opts Options) {
	n := 5 + rng.Intn(400)
	k = 2 + rng.Intn(5)
	opts = Options{MaxDepth: 1 + rng.Intn(6), MinLeaf: 1 + rng.Intn(10)}
	tab = store.NewTable("random")
	nulls := func() bool { return rng.Float64() < 0.1 }
	// signal holds the last column's values drawn: the labels follow it.
	signal := make([]int, n)
	for c := 0; c < 1+rng.Intn(6); c++ {
		name := fmt.Sprintf("c%d", c)
		distinct := 1 + rng.Intn(40) // few distinct values: many ties
		switch kind := rng.Intn(6); {
		case kind <= 2:
			col := store.NewFloatColumn(name)
			for i := 0; i < n; i++ {
				v := rng.Intn(distinct)
				signal[i] = v
				switch p := rng.Float64(); {
				case nulls():
					col.AppendNull()
				case p < 0.05:
					col.Append(math.NaN())
				case p < 0.08:
					col.Append(math.Inf(1))
				case p < 0.11:
					col.Append(math.Inf(-1))
				default:
					col.Append(float64(v)*0.75 - 3)
				}
			}
			tab.MustAddColumn(col)
		case kind == 3:
			col := store.NewIntColumn(name)
			for i := 0; i < n; i++ {
				v := rng.Intn(distinct)
				signal[i] = v
				if nulls() {
					col.AppendNull()
				} else {
					col.Append(int64(v) - 10)
				}
			}
			tab.MustAddColumn(col)
		case kind == 4:
			col := store.NewBoolColumn(name)
			for i := 0; i < n; i++ {
				v := rng.Intn(2)
				signal[i] = v
				if nulls() {
					col.AppendNull()
				} else {
					col.Append(v == 1)
				}
			}
			tab.MustAddColumn(col)
		default:
			col := store.NewStringColumn(name)
			for i := 0; i < n; i++ {
				v := rng.Intn(distinct)
				signal[i] = v
				if nulls() {
					col.AppendNull()
				} else {
					col.Append(fmt.Sprintf("v%02d", v))
				}
			}
			tab.MustAddColumn(col)
		}
		features = append(features, name)
	}
	if rng.Intn(4) == 0 { // a feature named twice
		features = append(features, features[rng.Intn(len(features))])
	}
	rng.Shuffle(len(features), func(i, j int) { features[i], features[j] = features[j], features[i] })
	labels = make([]int, n)
	for i := range labels {
		switch p := rng.Float64(); {
		case p < 0.05:
			labels[i] = -1
		case p < 0.07:
			labels[i] = k
		case p < 0.3:
			labels[i] = rng.Intn(k)
		default:
			labels[i] = signal[i] % k
		}
	}
	return tab, features, labels, k, opts
}

// TestFitMatchesReference: the presorted fit grows the tree the
// reference grower does, node for node and bit for bit, on random
// mixed tables — fresh, and in one Scratch carried across fits of every
// shape, so a buffer left stale by a larger or wider fit shows.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sc Scratch
	splits := 0
	for i := 0; i < 600; i++ {
		tab, features, labels, k, opts := randomFitCase(rng)
		want, wantErr := referenceFit(tab, features, labels, k, opts)
		fresh, freshErr := Fit(tab, features, labels, k, opts)
		reused, reusedErr := sc.Fit(tab, features, labels, k, opts)
		if (wantErr != nil) != (freshErr != nil) || (wantErr != nil) != (reusedErr != nil) {
			t.Fatalf("case %d: errors %v (reference), %v (fresh), %v (reused)", i, wantErr, freshErr, reusedErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(fresh, want) {
			t.Fatalf("case %d (%v, k=%d, %+v): fresh fit\n%s\nreference\n%s", i, features, k, opts, render(fresh), render(want))
		}
		if !reflect.DeepEqual(reused, want) {
			t.Fatalf("case %d (%v, k=%d, %+v): fit in a reused scratch\n%s\nreference\n%s", i, features, k, opts, render(reused), render(want))
		}
		splits += want.NumLeaves() - 1
	}
	if splits < 600 {
		t.Fatalf("%d splits over 600 fits: the cases barely split", splits)
	}
}
