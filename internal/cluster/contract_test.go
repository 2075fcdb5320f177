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

// rowsOf reads every row of o into an n×n table.
func rowsOf(o cluster.Oracle) [][]float64 {
	rows := make([][]float64, o.N())
	for i := range rows {
		rows[i] = make([]float64, o.N())
		o.RowInto(i, rows[i])
	}
	return rows
}

// checkOracle asserts the Oracle contract on o, bit for bit: its rows
// are symmetric with a zero diagonal, and read again give the same bits;
// while depth lasts, the subset store's law: row a of the matrix o fills
// over idx, at b, is row idx[a] at idx[b], for an ascending, a scrambled
// and an all-but-ascending idx, each filled matrix being held to the
// same contract in turn.
func checkOracle(t *testing.T, name string, o cluster.Oracle, depth int) {
	t.Helper()
	n := o.N()
	rows := rowsOf(o)
	again := make([]float64, n)
	for i := 0; i < n; i++ {
		if rows[i][i] != 0 {
			t.Fatalf("%s: row %d at %d = %v, want 0", name, i, i, rows[i][i])
		}
		for j := 0; j < n; j++ {
			if back := rows[j][i]; back != rows[i][j] {
				t.Fatalf("%s: row %d at %d = %v but row %d at %d = %v", name, i, j, rows[i][j], j, i, back)
			}
		}
		o.RowInto(i, again)
		for j, d := range again {
			if d != rows[i][j] {
				t.Fatalf("%s: row %d at %d read again = %v, was %v", name, i, j, d, rows[i][j])
			}
		}
	}
	if depth == 0 || n < 2 {
		return
	}
	var ascending []int
	for i := 0; i < n; i += 2 {
		ascending = append(ascending, i)
	}
	scrambled := rand.New(rand.NewSource(int64(n))).Perm(n)[:(2*n+2)/3]
	// Ascending up to its last pair, and the ascending subset of a
	// scrambled one: orders a subset's cells must follow, not assume.
	lastSwapped := append([]int(nil), ascending...)
	if m := len(lastSwapped); m >= 2 {
		lastSwapped[m-2], lastSwapped[m-1] = lastSwapped[m-1], lastSwapped[m-2]
	}
	for _, sub := range []struct {
		name string
		idx  []int
	}{{"ascending", ascending}, {"scrambled", scrambled}, {"lastSwapped", lastSwapped}} {
		label := fmt.Sprintf("%s/%s", name, sub.name)
		s := cluster.FilledSubset(o, sub.idx)
		if s.N() != len(sub.idx) {
			t.Fatalf("%s: N = %d, want %d", label, s.N(), len(sub.idx))
		}
		for a, row := range rowsOf(s) {
			for b, d := range row {
				if want := rows[sub.idx[a]][sub.idx[b]]; d != want {
					t.Fatalf("%s: row %d at %d = %v, parent row %d at %d = %v", label, a, b, d, sub.idx[a], sub.idx[b], want)
				}
			}
		}
		checkOracle(t, label, s, depth-1)
	}
}

// TestOracleContract holds both implementations of cluster.Oracle, and
// two levels of the matrices filled from each (a subset's, and a subset
// of the subset's, with ascending and unsorted idx), to the two row laws
// and the subset store's law written on the interface. A scratch's
// matrix built on a larger spent one's storage, whose cells held other
// distances, is held to them too.
func TestOracleContract(t *testing.T) {
	vecs := contractVecs(90, 21)
	metric := stats.Euclidean{}

	warm := cluster.NewLazyOracle(vecs, metric)
	buf := make([]float64, len(vecs))
	for i := range vecs {
		warm.RowInto(i, buf) // an oracle that has answered every row
	}
	var sc cluster.Scratch
	sc.Oracle(contractVecs(len(vecs)+30, 23), metric, 0)
	reused := sc.Oracle(vecs, metric, 0)
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
