package store

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// referenceRoute is the router's specification: every split is the
// row-by-row Predicate.Matches loop over the rows its parent hands it.
func referenceRoute(r Relation, t SplitTree, rows []int) [][]int {
	out := make([][]int, len(t))
	var walk func(i int, rows []int)
	walk = func(i int, rows []int) {
		out[i] = rows
		if t[i].Split == nil {
			return
		}
		var yes, no []int
		for _, row := range rows {
			if t[i].Split.Matches(r, row) {
				yes = append(yes, row)
			} else {
				no = append(no, row)
			}
		}
		walk(i+1, yes)
		walk(i+t[i].No, no)
	}
	walk(0, rows)
	return out
}

// routeSplits are the split shapes the random trees draw from, over
// the writeTestCSV schema (every column has nulls, so every split is
// one a tree.Node would mark SplitMissing): the typed kernels' shapes
// at thresholds inside, at and beyond the value range (the last leave
// a child empty), a value missing from the dictionary, and shapes only
// the compiled-matcher fallback covers.
func routeSplits() []Predicate {
	return []Predicate{
		NumCmp{Col: "x", Op: Lt, Val: 0},
		NumCmp{Col: "x", Op: Lt, Val: 7.25},
		NumCmp{Col: "x", Op: Lt, Val: -1e9},
		NumCmp{Col: "x", Op: Lt, Val: 1e9},
		NumCmp{Col: "count", Op: Lt, Val: 0},
		NumCmp{Col: "count", Op: Lt, Val: -123.5},
		NumCmp{Col: "count", Op: Lt, Val: 1e9},
		NumCmp{Col: "flag", Op: Lt, Val: 0.5},
		NumCmp{Col: "flag", Op: Lt, Val: 2},
		NumCmp{Col: "flag", Op: Lt, Val: 0},
		StrEq{Col: "label", Val: "beta"},
		StrEq{Col: "label", Val: "delta"},
		StrEq{Col: "label", Val: "no-such-level"},
		NumCmp{Col: "ragged", Op: Lt, Val: 1},
		NumCmp{Col: "x", Op: Ge, Val: 3},
		NumCmp{Col: "label", Op: Lt, Val: 0},
		NumCmp{Col: "missing", Op: Lt, Val: 0},
		StrEq{Col: "label", Val: "alpha", Neq: true},
		StrEq{Col: "count", Val: "42"},
		IsNull{Col: "x"},
		Or{NumCmp{Col: "x", Op: Gt, Val: 10}, StrIn{Col: "label", Vals: []string{"gamma"}}},
	}
}

// randomSplitTree draws a tree of at most maxDepth split levels.
func randomSplitTree(rng *rand.Rand, maxDepth int) SplitTree {
	splits := routeSplits()
	var t SplitTree
	var grow func(depth int)
	grow = func(depth int) {
		i := len(t)
		t = append(t, SplitNode{})
		if depth == maxDepth || rng.Intn(4) == 0 {
			return
		}
		grow(depth + 1)
		t[i] = SplitNode{Split: splits[rng.Intn(len(splits))], No: len(t) - i}
		grow(depth + 1)
	}
	grow(0)
	return t
}

// routeSelections are the selection shapes over n rows at 64 rows per
// page, in every form: ranges, bitmaps (sparse) and a list (scattered).
func routeSelections(rng *rand.Rand, n int) map[string][]int {
	return map[string][]int{
		"full":        rangeRows(0, n),
		"sparse":      SampleIndices(n, n/9, rng),
		"scattered":   SampleIndices(n, n/100, rng),
		"single-page": rangeRows(130, 190),
		"one-row":     {n - 1},
		"empty":       {},
		"straddling":  rangeRows(60, 70),
		"tail-page":   rangeRows(n-70, n),
	}
}

// assertRouted compares every node's count and rows with the
// reference lists; the rows are built here, on first read, and must be
// in their smallest form.
func assertRouted(t *testing.T, what string, got *Routing, want [][]int) {
	t.Helper()
	if len(got.count) != len(want) {
		t.Fatalf("%s: %d node counts, want %d", what, len(got.count), len(want))
	}
	for i := range want {
		if got.Count(i) != len(want[i]) {
			t.Fatalf("%s: node %d counts %d rows, want %d", what, i, got.Count(i), len(want[i]))
		}
		rows := got.Rows(i)
		if ids := rows.AppendTo(nil); !equalInts(ids, want[i]) {
			t.Fatalf("%s: node %d got %d rows %v, want %d rows %v", what, i, len(ids), ids, len(want[i]), want[i])
		}
		if f, want := formOf(rows), smallestForm(want[i]); f != want {
			t.Fatalf("%s: node %d is a %s, want a %s", what, i, f, want)
		}
	}
}

// TestRouteRowsMatchesReference is the router's differential: random
// pruned trees × both backings × every selection shape and form, leaf
// and internal rows against the recursive Matches partition.
func TestRouteRowsMatchesReference(t *testing.T) {
	const n = 700
	mem, seg := openBoth(t, n, 1<<20)
	rng := rand.New(rand.NewSource(16))
	sels := routeSelections(rng, n)
	for trial := 0; trial < 60; trial++ {
		tree := randomSplitTree(rng, 1+trial%4)
		for name, rows := range sels {
			want := referenceRoute(mem, tree, rows)
			for _, b := range []struct {
				backing string
				r       Relation
			}{{"table", mem}, {"segment", seg}} {
				what := fmt.Sprintf("trial %d (%d nodes), %s selection, %s", trial, len(tree), name, b.backing)
				sel := RowsOf(rows)
				got := Route(b.r, tree, sel)
				assertRouted(t, what, got, want)
				if got.Rows(0) != sel {
					t.Fatalf("%s: root set is a copy, want the selection itself", what)
				}
			}
		}
	}
}

// deepTrees are trees with more split levels than one pass descends
// (and more leaves than a leaf id names): a left-leaning chain of
// thresholds and a full tree of depth 9.
func deepTrees() map[string]SplitTree {
	// depth nested thresholds: node d's yes-child is node d+1, and the
	// no-leaves close the chain in reverse after the innermost leaf.
	const depth = 2*maxRouteDepth + 3
	chain := make(SplitTree, 2*depth+1)
	for d := 0; d < depth; d++ {
		chain[d] = SplitNode{Split: NumCmp{Col: "x", Op: Lt, Val: 20 - float64(d)}, No: 2 * (depth - d)}
	}

	rng := rand.New(rand.NewSource(9))
	splits := routeSplits()
	var full SplitTree
	var grow func(depth int)
	grow = func(depth int) {
		i := len(full)
		full = append(full, SplitNode{})
		if depth == maxRouteDepth+1 {
			return
		}
		grow(depth + 1)
		full[i] = SplitNode{Split: splits[rng.Intn(len(splits))], No: len(full) - i}
		grow(depth + 1)
	}
	grow(0)
	return map[string]SplitTree{"chain": chain, "full": full}
}

// TestRouteRowsDeepTree routes through the deep trees, whose subtrees
// cut at maxRouteDepth are routed by further passes.
func TestRouteRowsDeepTree(t *testing.T) {
	const n = 700
	mem, seg := openBoth(t, n, 1<<20)
	rows := rangeRows(0, n)
	for name, tree := range deepTrees() {
		want := referenceRoute(mem, tree, rows)
		assertRouted(t, name+", table", Route(mem, tree, All(n)), want)
		assertRouted(t, name+", segment", Route(seg, tree, All(n)), want)
	}
}

// TestRouteDeepConcurrent: concurrent routes through the deep trees,
// over one shared segment (through a pool far smaller than it) and the
// table, so every route's passes — its own and the further ones over
// its cut subtrees — and the collects between them take run scratch
// from the one pool and give it back while other routes do. Every node
// must equal the reference. Run under -race by `make race-scan`.
func TestRouteDeepConcurrent(t *testing.T) {
	const n = 3000
	mem, seg := openBoth(t, n, 8<<10)
	rng := rand.New(rand.NewSource(23))
	type job struct {
		name string
		tree SplitTree
		rows []int
		want [][]int
	}
	var jobs []job
	for name, tree := range deepTrees() {
		for _, rows := range [][]int{rangeRows(0, n), SampleIndices(n, n/5, rng)} {
			jobs = append(jobs, job{name, tree, rows, referenceRoute(mem, tree, rows)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				j := jobs[(g+it)%len(jobs)]
				r := Relation(seg)
				if (g+it)%3 == 0 {
					r = mem
				}
				got := Route(r, j.tree, RowsOf(j.rows))
				for nd := range j.want {
					if !equalInts(got.Rows(nd).AppendTo(nil), j.want[nd]) {
						t.Errorf("goroutine %d, %s over %d rows: node %d differs from the reference", g, j.name, len(j.rows), nd)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// leafTree draws a balanced tree of exactly leaves leaves. Its splits
// cut count's range in proportion to the leaves on each side, so rows
// reach every leaf id, except one in four, drawn from routeSplits.
func leafTree(rng *rand.Rand, leaves int) SplitTree {
	splits := routeSplits()
	var t SplitTree
	var grow func(leaves int, lo, hi float64)
	grow = func(leaves int, lo, hi float64) {
		i := len(t)
		t = append(t, SplitNode{})
		if leaves == 1 {
			return
		}
		yes := leaves / 2
		mid := lo + (hi-lo)*float64(yes)/float64(leaves)
		var p Predicate = NumCmp{Col: "count", Op: Lt, Val: mid}
		if rng.Intn(4) == 0 {
			p = splits[rng.Intn(len(splits))]
		}
		grow(yes, lo, mid)
		t[i] = SplitNode{Split: p, No: len(t) - i}
		grow(leaves-yes, mid, hi)
	}
	grow(leaves, -500, 500)
	return t
}

// TestRouteLeafIDWidths routes trees of every leaf-id width — 1, 2, 3,
// 4, 5, 16, 17 and 256 leaves, one bit-plane to eight, and 300, whose
// depth-8 nodes are routed by sub-routes — on both backings against the
// reference. The selections are not multiples of 64 rows, and their
// page runs start mid-word; the first and last selected rows reach a
// node at every level, so leafEnds meets both ends of the planes.
func TestRouteLeafIDWidths(t *testing.T) {
	const n = 1500
	mem, seg := openBoth(t, n, 1<<20)
	everyKth := func(from, k int) []int {
		var rows []int
		for r := from; r < n; r += k {
			rows = append(rows, r)
		}
		return rows
	}
	sels := map[string][]int{
		"the table":       rangeRows(0, n),
		"a range":         rangeRows(3, 706), // 703 rows: 63 past a word
		"65 rows":         rangeRows(n-65, n),
		"a bitmap":        everyKth(37, 2),
		"a sparse bitmap": everyKth(5, 7),
		"a list":          everyKth(41, 97),
		"one row":         {n - 1},
	}
	rng := rand.New(rand.NewSource(35))
	for _, leaves := range []int{1, 2, 3, 4, 5, 16, 17, 256, 300} {
		for trial := 0; trial < 3; trial++ {
			tree := leafTree(rng, leaves)
			for name, rows := range sels {
				want := referenceRoute(mem, tree, rows)
				for _, b := range []struct {
					backing string
					r       Relation
				}{{"table", mem}, {"segment", seg}} {
					what := fmt.Sprintf("%d leaves (trial %d), %s (%s), %s", leaves, trial, name, formOf(RowsOf(rows)), b.backing)
					got := Route(b.r, tree, RowsOf(rows))
					if planes := bits.Len(uint(min(leaves, 256) - 1)); len(got.planes) != planes {
						t.Fatalf("%s: %d bit-planes, want %d", what, len(got.planes), planes)
					}
					assertRouted(t, what, got, want)
				}
			}
		}
	}
}

// FuzzRoute: a random split tree — up to ten levels, so past one
// pass's depth — and an ascending selection drawn from the fuzz input
// route on both backings as the reference does, and no input panics.
// The gaps between selected rows run from 0, a range, to 255, a list.
// The scan operators, the one-split case, are held to the reference on
// the root's split: ScanRows over the selection, and FilterLimit a
// prefix of Filter.
func FuzzRoute(f *testing.F) {
	const n = 700
	mem, seg := openBoth(f, n, 1<<20)
	f.Add(int64(1), uint8(3), []byte{0, 0, 0, 5, 0, 0})
	f.Add(int64(9), uint8(10), []byte{63, 1, 64, 200, 1})
	f.Add(int64(16), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, gaps []byte) {
		tree := randomSplitTree(rand.New(rand.NewSource(seed)), int(depth%11))
		var rows []int
		r := 0
		for _, g := range gaps {
			if r += int(g); r >= n {
				break
			}
			rows = append(rows, r)
			r++
		}
		want := referenceRoute(mem, tree, rows)
		assertRouted(t, "table", Route(mem, tree, RowsOf(rows)), want)
		assertRouted(t, "segment", Route(seg, tree, RowsOf(rows)), want)
		p := tree[0].Split
		if p == nil {
			return
		}
		matched, all := referenceFilter(mem, p, rows), referenceFilter(mem, p, rangeRows(0, n))
		for _, r := range []Relation{mem, seg} {
			if got := ScanRows(r, p, RowsOf(rows)).AppendTo(nil); !equalInts(got, matched) {
				t.Fatalf("%s on %T: ScanRows selects %d rows, want %d", p, r, len(got), len(matched))
			}
			limit := len(gaps) % 80
			if got := FilterLimit(r, p, limit); !equalInts(got, all[:min(limit, len(all))]) || !equalInts(r.Filter(p), all) {
				t.Fatalf("%s on %T: FilterLimit(%d) is no prefix of Filter's %d rows", p, r, limit, len(all))
			}
		}
	})
}

// TestRouteSkipsZoneMappedPages: a split over a sorted column of a
// segment reads, once each, the pages of the selection its zone map does
// not exclude and no other — per column it reads — and routes as the
// reference does.
func TestRouteSkipsZoneMappedPages(t *testing.T) {
	const n, rpp = 640, 64
	mem := NewTable("sorted")
	v, w := NewIntColumn("v"), NewFloatColumn("w")
	for r := 0; r < n; r++ {
		v.Append(int64(r))
		w.Append(float64(r % 7))
	}
	mem.MustAddColumn(v)
	mem.MustAddColumn(w)
	seg := segmentOf(t, mem, rpp)
	reads := func() uint64 { s := seg.PoolStats(); return s.Hits + s.Misses }
	for _, c := range []struct {
		p    Predicate
		cols int // the columns it reads on a page it does not exclude
	}{
		{NumCmp{Col: "v", Op: Lt, Val: 200}, 1},
		{NumCmp{Col: "v", Op: Ge, Val: 1000}, 1},
		{And{NumCmp{Col: "v", Op: Ge, Val: 128}, NumCmp{Col: "v", Op: Lt, Val: 300}}, 1},
		{And{NumCmp{Col: "v", Op: Ge, Val: 448}, NumCmp{Col: "w", Op: Gt, Val: 3}}, 2},
	} {
		skips := referencePageSkips(seg, c.p)
		for _, rows := range [][]int{rangeRows(0, n), append(rangeRows(100, 250), rangeRows(520, 530)...)} {
			want := uint64(0)
			for pi := 0; pi < n/rpp; pi++ {
				excluded := !slices.ContainsFunc(rows, func(r int) bool { return r/rpp == pi })
				for _, skip := range skips {
					excluded = excluded || skip(pi)
				}
				if !excluded {
					want += uint64(c.cols)
				}
			}
			tree := SplitTree{{Split: c.p, No: 2}, {}, {}}
			before := reads()
			rg := Route(seg, tree, RowsOf(rows))
			if got := reads() - before; got != want {
				t.Errorf("%s over %d rows: %d page reads, want %d", c.p, len(rows), got, want)
			}
			assertRouted(t, c.p.String(), rg, referenceRoute(mem, tree, rows))
		}
	}
}

// TestPartitionRowsIsOneSplit: PartitionRows over every predicate
// shape equals the reference on both backings, and both halves are cut
// at their length, so an append to one never writes into shared memory.
func TestPartitionRowsIsOneSplit(t *testing.T) {
	const n = 700
	mem, seg := openBoth(t, n, 1<<20)
	rows := SampleIndices(n, 300, rand.New(rand.NewSource(3)))
	for _, p := range append(testPredicates(), routeSplits()...) {
		want := referenceRoute(mem, SplitTree{{Split: p, No: 2}, {}, {}}, rows)
		for _, r := range []Relation{mem, seg} {
			yes, no := PartitionRows(r, p, rows)
			if !equalInts(yes, want[1]) || !equalInts(no, want[2]) {
				t.Fatalf("%s: PartitionRows = (%d, %d rows), want (%d, %d)", p, len(yes), len(no), len(want[1]), len(want[2]))
			}
			if cap(yes) != len(yes) || cap(no) != len(no) {
				t.Fatalf("%s: halves have caps %d/%d beyond their %d/%d rows", p, cap(yes), cap(no), len(yes), len(no))
			}
		}
	}
}

// TestRouteRowsByteBudget: a route over a selection of n rows — the
// whole table, or a bitmap of a third of it — through L leaves
// allocates ⌈log₂ L⌉ bit-planes of n bits (n/8 bytes for one split, n/4
// for the four leaves of benchRouteTree) and a fixed amount of scratch,
// no row list; a node's rows cost at most min(8 bytes a row, span/8) on
// the first read, plus the collect's scratch, and nothing after.
func TestRouteRowsByteBudget(t *testing.T) {
	const n = 200_000
	const slack = 136 << 10 // the router's scratch: selection vectors, match bytes, a run's leaf ids and a decoded run
	tab := benchTable(n)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, tree := range map[string]SplitTree{
		"one split":  {{Split: NumCmp{Col: "x", Op: Lt, Val: 50}, No: 2}, {}, {}},
		"two levels": benchRouteTree(),
	} {
		leaves := 0
		for _, nd := range tree {
			if nd.Split == nil {
				leaves++
			}
		}
		for _, rows := range []*RowSet{All(n), RowsOf(SampleIndices(n, n/3, rand.New(rand.NewSource(3))))} {
			what := fmt.Sprintf("%s over a %s of %d rows", name, formOf(rows), rows.Len())
			Route(tab, tree, rows).Rows(1) // warm the runtime's size classes
			var rt *Routing
			routeBudget := uint64(bits.Len(uint(leaves-1))*8*bitmapWords(rows.Len()) + slack)
			if got := allocated(func() { rt = Route(tab, tree, rows) }); got > routeBudget {
				t.Errorf("%s: Route allocated %d bytes, budget %d", what, got, routeBudget)
			}
			for i := 1; i < len(tree); i++ {
				budget := uint64(min(8*rt.Count(i), 8*bitmapWords(n)) + 16<<10) // scratch, and large objects rounded up to 8 KiB pages
				if got := allocated(func() { rt.Rows(i) }); got > budget {
					t.Errorf("%s: first Rows(%d) allocated %d bytes for %d rows, budget %d", what, i, got, rt.Count(i), budget)
				}
				if got := allocated(func() { rt.Rows(i) }); got != 0 {
					t.Errorf("%s: second Rows(%d) allocated %d bytes, want 0", what, i, got)
				}
			}
		}
	}
}

// TestRouteRowsConcurrent hammers one shared segment (and a pool far
// smaller than it) with concurrent routes and gathers, and one shared
// Routing with concurrent first reads of the same nodes; every route
// must equal the sequential result, and every node is built once. Run
// under -race by `make race-scan`.
func TestRouteRowsConcurrent(t *testing.T) {
	const n = 3000
	mem, seg := openBoth(t, n, 8<<10)
	rng := rand.New(rand.NewSource(21))
	tree := randomSplitTree(rng, 4)
	for len(tree) < 7 {
		tree = randomSplitTree(rng, 4)
	}
	ids := [][]int{rangeRows(0, n), SampleIndices(n, n/5, rng), rangeRows(1000, 1100)}
	want := make([][][]int, len(ids))
	sels := make([]*RowSet, len(ids))
	for i, rows := range ids {
		want[i] = referenceRoute(mem, tree, rows)
		sels[i] = RowsOf(rows)
	}
	shared := Route(seg, tree, sels[0])
	built := make([][]*RowSet, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			built[g] = make([]*RowSet, len(tree))
			for k := range tree {
				nd := (k + g) % len(tree)
				built[g][nd] = shared.Rows(nd)
			}
			for it := 0; it < 10; it++ {
				i := (g + it) % len(sels)
				got := Route(seg, tree, sels[i])
				for nd := range want[i] {
					if !equalInts(got.Rows(nd).AppendTo(nil), want[i][nd]) {
						t.Errorf("goroutine %d: node %d differs from the sequential route", g, nd)
						return
					}
				}
				if it%3 == 0 {
					seg.ColumnByName("x").Gather(ids[i])
				}
			}
		}(g)
	}
	wg.Wait()
	for nd := range tree {
		if !equalInts(built[0][nd].AppendTo(nil), want[0][nd]) {
			t.Fatalf("shared routing: node %d differs from the reference", nd)
		}
		for g := 1; g < len(built); g++ {
			if built[g][nd] != built[0][nd] {
				t.Fatalf("shared routing: node %d was built more than once", nd)
			}
		}
	}
}
