package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/stats"
)

// contractVecs returns n pinned-seed vectors in three loose groups.
func contractVecs(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		c := float64(i%3) * 6
		vecs[i] = []float64{c + rng.NormFloat64(), c - rng.NormFloat64(), rng.NormFloat64() * 2}
	}
	return vecs
}

// randomMatrix fills an n-object DistMatrix with random cells — no
// vectors behind it, as for the dependency graph.
func randomMatrix(n int, seed int64) *cluster.DistMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := cluster.NewDistMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	return m
}

// checkOracle asserts the Oracle contract on o, bit for bit: while
// depth lasts, Subset(idx).Dist(a, b) == Dist(idx[a], idx[b]) for an
// ascending, a scrambled and an all-but-ascending idx, each subset being
// held to the same contract in turn; then Dist is symmetric with a zero diagonal and
// RowInto(i)[j] == Dist(i, j) (twice, so the second pass reads whatever
// the first memoized).
func checkOracle(t *testing.T, name string, o cluster.Oracle, depth int) {
	t.Helper()
	n := o.N()
	// Subsets first: o has materialized no row yet unless the caller
	// warmed its memo, which a lazy subset never reads.
	if depth > 0 && n >= 2 {
		var ascending []int
		for i := 0; i < n; i += 2 {
			ascending = append(ascending, i)
		}
		scrambled := rand.New(rand.NewSource(int64(n))).Perm(n)[:(2*n+2)/3]
		// Ascending up to its last pair: a view must not take it for
		// ascending, nor a scrambled view's ascending subset (composed
		// over the view's own idx) for one.
		lastSwapped := append([]int(nil), ascending...)
		if m := len(lastSwapped); m >= 2 {
			lastSwapped[m-2], lastSwapped[m-1] = lastSwapped[m-1], lastSwapped[m-2]
		}
		for _, sub := range []struct {
			name string
			idx  []int
		}{{"ascending", ascending}, {"scrambled", scrambled}, {"lastSwapped", lastSwapped}} {
			label := fmt.Sprintf("%s/%s", name, sub.name)
			s := o.Subset(sub.idx)
			if s.N() != len(sub.idx) {
				t.Fatalf("%s: N = %d, want %d", label, s.N(), len(sub.idx))
			}
			for a, i := range sub.idx {
				for b, j := range sub.idx {
					if got, want := s.Dist(a, b), o.Dist(i, j); got != want {
						t.Fatalf("%s: Dist(%d,%d) = %v, parent Dist(%d,%d) = %v", label, a, b, got, i, j, want)
					}
				}
			}
			checkOracle(t, label, s, depth-1)
		}
	}
	row := make([]float64, n)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			o.RowInto(i, row)
			for j := 0; j < n; j++ {
				d := o.Dist(i, j)
				if row[j] != d {
					t.Fatalf("%s pass %d: RowInto(%d)[%d] = %v, Dist = %v", name, pass, i, j, row[j], d)
				}
				if back := o.Dist(j, i); back != d {
					t.Fatalf("%s: Dist(%d,%d) = %v but Dist(%d,%d) = %v", name, i, j, d, j, i, back)
				}
			}
			if row[i] != 0 {
				t.Fatalf("%s: Dist(%d,%d) = %v, want 0", name, i, i, row[i])
			}
		}
	}
}

// TestOracleContract holds every implementation of cluster.Oracle, and
// two levels of subsets of each (a view, a view of the view, with
// ascending and unsorted idx — so both row loops of a matrix view, and
// an ascending view of an unsorted one), to the two laws written on the
// interface. A matrix NewOracle built on a larger spent one's storage,
// whose cells held other distances, is held to them too.
func TestOracleContract(t *testing.T) {
	vecs := contractVecs(90, 21)
	metric := stats.Euclidean{}

	warm := cluster.NewLazyOracle(vecs, metric)
	buf := make([]float64, len(vecs))
	for i := range vecs {
		warm.RowInto(i, buf) // rows are then read out of the memo
	}
	reused := cluster.NewOracle(vecs, metric, randomMatrix(len(vecs)+30, 23))
	g := graph.New([]string{"a", "b", "c", "d", "e", "f", "g"})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			g.SetWeight(i, j, rng.Float64()*1.1) // some weights above 1: clamped distances
		}
	}

	cases := []struct {
		name string
		o    cluster.Oracle
	}{
		{"matrix", cluster.ComputeDistMatrix(vecs, metric)},
		{"matrix/reused", reused},
		{"lazy/cold", cluster.NewLazyOracle(vecs, metric)},
		{"lazy/warm", warm},
		{"graph", g.Oracle()},
	}
	// The condensed layout's edge sizes: no pairs, one pair, the first
	// strided row.
	for _, n := range []int{0, 1, 2, 3, 7, 40} {
		cases = append(cases, struct {
			name string
			o    cluster.Oracle
		}{fmt.Sprintf("matrix/n=%d", n), randomMatrix(n, int64(n))})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkOracle(t, tc.name, tc.o, 2) })
	}
}
