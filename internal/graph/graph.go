// Package graph implements the dependency graph behind Blaeu's theme
// detection (paper Fig. 2): a weighted undirected graph whose vertices are
// columns and whose edge weights are statistical dependencies (normalized
// mutual information), partitioned into themes with PAM.
package graph

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/cores"
	"repro/internal/stats"
	"repro/internal/store"
)

// Graph is a dense weighted undirected graph over named vertices. Weights
// are similarities in [0,1] (1 = fully dependent columns).
type Graph struct {
	names  []string
	index  map[string]int
	weight [][]float64
}

// New returns a graph over the given vertex names with zero weights.
func New(names []string) *Graph {
	g := &Graph{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		g.index[n] = i
	}
	g.weight = make([][]float64, len(names))
	for i := range g.weight {
		g.weight[i] = make([]float64, len(names))
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.names) }

// Names returns the vertex names in index order.
func (g *Graph) Names() []string { return g.names }

// Index returns the index of a named vertex, or -1.
func (g *Graph) Index(name string) int {
	i, ok := g.index[name]
	if !ok {
		return -1
	}
	return i
}

// SetWeight sets the symmetric edge weight between vertices i and j.
func (g *Graph) SetWeight(i, j int, w float64) {
	g.weight[i][j] = w
	g.weight[j][i] = w
}

// Weight returns the edge weight between vertices i and j.
func (g *Graph) Weight(i, j int) float64 { return g.weight[i][j] }

// Edge is one weighted edge, I < J.
type Edge struct {
	I, J   int
	Weight float64
}

// Edges returns all edges with weight above min, heaviest first.
func (g *Graph) Edges(min float64) []Edge {
	var out []Edge
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			if w := g.weight[i][j]; w > min {
				out = append(out, Edge{I: i, J: j, Weight: w})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// DependencyOptions tunes dependency-graph construction.
type DependencyOptions struct {
	// SampleRows caps the number of rows used to estimate each pairwise
	// dependency (0 = all rows). The paper keeps latency low by
	// estimating statistics on samples (§3).
	SampleRows int
	// Bins is the discretization granularity for continuous columns
	// (default stats.DefaultBins).
	Bins int
	// Measure selects the dependency measure (default MeasureNMI).
	Measure Measure
	// Rand is required when SampleRows > 0.
	Rand *rand.Rand
}

// Measure selects the pairwise dependency statistic.
type Measure int

const (
	// MeasureNMI is normalized mutual information — the paper's choice:
	// "it copes with mixed values and it is sensitive to non-linear
	// relationships" (§3).
	MeasureNMI Measure = iota
	// MeasureAbsPearson is |Pearson correlation|, the ablation baseline.
	MeasureAbsPearson
)

// String names the measure.
func (m Measure) String() string {
	if m == MeasureAbsPearson {
		return "abs-pearson"
	}
	return "nmi"
}

// BuildDependencyGraph computes the pairwise dependency between every pair
// of the given columns of t (all columns when names is nil) and returns
// the weighted graph.
func BuildDependencyGraph(t store.Relation, names []string, opts DependencyOptions) (*Graph, error) {
	if names == nil {
		names = t.ColumnNames()
	}
	if opts.Bins <= 0 {
		opts.Bins = stats.DefaultBins
	}
	cols := make([]store.Column, len(names))
	for i, n := range names {
		c := t.ColumnByName(n)
		if c == nil {
			return nil, fmt.Errorf("graph: no column %q", n)
		}
		cols[i] = c
	}
	// Optionally subsample rows once, shared across all pairs, so the
	// pairwise estimates stay mutually consistent.
	if opts.SampleRows > 0 && opts.SampleRows < t.NumRows() {
		if opts.Rand == nil {
			return nil, fmt.Errorf("graph: SampleRows set but no random source")
		}
		rows := store.SampleIndices(t.NumRows(), opts.SampleRows, opts.Rand)
		for i, c := range cols {
			cols[i] = c.Gather(rows)
		}
	}

	g := New(names)
	switch opts.Measure {
	case MeasureAbsPearson:
		vals := make([][]float64, len(cols))
		for i, c := range cols {
			v := make([]float64, c.Len())
			for r := 0; r < c.Len(); r++ {
				v[r] = c.Float(r)
			}
			vals[i] = v
		}
		for i := range cols {
			for j := i + 1; j < len(cols); j++ {
				r := stats.Pearson(vals[i], vals[j])
				if r < 0 {
					r = -r
				}
				g.SetWeight(i, j, r)
			}
		}
	default:
		disc := make([][]int, len(cols))
		for i, c := range cols {
			disc[i] = stats.DiscretizeColumn(c, opts.Bins)
		}
		// O(cols²) NMI computations are independent: spread rows of the
		// upper triangle over the free cores (disjoint writes per row i).
		cores.Run(len(cols), func(i int) {
			for j := i + 1; j < len(cols); j++ {
				g.SetWeight(i, j, stats.NormalizedMI(disc[i], disc[j]))
			}
		})
	}
	return g, nil
}

// Oracle returns the graph as a cluster.Oracle where dissimilarity is
// 1 - weight (clamped at 0), suitable for PAM partitioning: a small
// distance matrix, one cell per column pair.
func (g *Graph) Oracle() cluster.Oracle {
	m := cluster.NewDistMatrix(g.N())
	for i, row := range g.weight {
		for j := i + 1; j < len(row); j++ {
			m.Set(i, j, max(1-row[j], 0))
		}
	}
	return m
}

// Partition splits the graph's vertices into k groups with PAM, minimizing
// the aggregated dissimilarity (1 - dependency) between vertices and their
// medoid — exactly the theme-creation step of paper §3.
func (g *Graph) Partition(k int) (*cluster.Clustering, error) {
	return cluster.PAM(g.Oracle(), k)
}

// AutoPartition chooses the number of themes with the silhouette
// criterion.
func (g *Graph) AutoPartition(kMin, kMax int, rng *rand.Rand) (*cluster.Clustering, error) {
	return cluster.AutoK(g.Oracle(), cluster.AutoKOptions{
		KMin: kMin, KMax: kMax, Rand: rng,
	})
}

// MaximumSpanningTree returns the edges of a maximum-weight spanning
// forest (Kruskal on negated weights); useful for rendering the dependency
// graph sparsely, as in paper Fig. 2.
func (g *Graph) MaximumSpanningTree() []Edge {
	edges := g.Edges(0)
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var out []Edge
	for _, e := range edges {
		ri, rj := find(e.I), find(e.J)
		if ri != rj {
			parent[ri] = rj
			out = append(out, e)
		}
	}
	return out
}
