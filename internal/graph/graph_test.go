package graph

import (
	"math/rand"
	"testing"

	"repro/internal/store"
)

// twoThemeTable builds a table with two planted themes: columns a1,a2,a3
// derive from one latent factor, b1,b2,b3 from another.
func twoThemeTable(n int, rng *rand.Rand) *store.Table {
	t := store.NewTable("planted")
	fa := make([]float64, n)
	fb := make([]float64, n)
	for i := 0; i < n; i++ {
		fa[i] = rng.NormFloat64()
		fb[i] = rng.NormFloat64()
	}
	derive := func(f []float64, scale, noise float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f[i]*scale + rng.NormFloat64()*noise
		}
		return out
	}
	t.MustAddColumn(store.NewFloatColumnFrom("a1", derive(fa, 1, 0.1)))
	t.MustAddColumn(store.NewFloatColumnFrom("a2", derive(fa, -2, 0.1)))
	t.MustAddColumn(store.NewFloatColumnFrom("a3", derive(fa, 0.5, 0.1)))
	t.MustAddColumn(store.NewFloatColumnFrom("b1", derive(fb, 1, 0.1)))
	t.MustAddColumn(store.NewFloatColumnFrom("b2", derive(fb, 3, 0.1)))
	t.MustAddColumn(store.NewFloatColumnFrom("b3", derive(fb, -1, 0.1)))
	return t
}

func TestGraphBasics(t *testing.T) {
	g := New([]string{"x", "y", "z"})
	if g.N() != 3 {
		t.Fatal("N wrong")
	}
	g.SetWeight(0, 2, 0.5)
	if g.Weight(2, 0) != 0.5 {
		t.Error("weights must be symmetric")
	}
	if g.Index("y") != 1 || g.Index("nope") != -1 {
		t.Error("index wrong")
	}
	if len(g.Names()) != 3 {
		t.Error("names wrong")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New([]string{"a", "b", "c"})
	g.SetWeight(0, 1, 0.2)
	g.SetWeight(1, 2, 0.9)
	g.SetWeight(0, 2, 0.5)
	edges := g.Edges(0.3)
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].Weight != 0.9 || edges[1].Weight != 0.5 {
		t.Error("edges not sorted by weight")
	}
}

func TestBuildDependencyGraphRecoversThemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := twoThemeTable(2000, rng)
	g, err := BuildDependencyGraph(tab, nil, DependencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Within-theme weights must dominate cross-theme weights.
	within := (g.Weight(0, 1) + g.Weight(0, 2) + g.Weight(1, 2) +
		g.Weight(3, 4) + g.Weight(3, 5) + g.Weight(4, 5)) / 6
	cross := (g.Weight(0, 3) + g.Weight(0, 4) + g.Weight(1, 3) + g.Weight(2, 5)) / 4
	if within < cross+0.2 {
		t.Errorf("within = %.3f, cross = %.3f: themes not separated", within, cross)
	}
	// PAM partitioning must recover the two themes.
	c, err := g.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels[0] != c.Labels[1] || c.Labels[1] != c.Labels[2] {
		t.Errorf("a-theme split: labels = %v", c.Labels)
	}
	if c.Labels[3] != c.Labels[4] || c.Labels[4] != c.Labels[5] {
		t.Errorf("b-theme split: labels = %v", c.Labels)
	}
	if c.Labels[0] == c.Labels[3] {
		t.Errorf("themes merged: labels = %v", c.Labels)
	}
}

func TestAutoPartitionFindsTwoThemes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := twoThemeTable(2000, rng)
	g, err := BuildDependencyGraph(tab, nil, DependencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.AutoPartition(2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 2 {
		t.Errorf("AutoPartition chose k=%d, want 2", c.K)
	}
}

func TestBuildDependencyGraphSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := twoThemeTable(5000, rng)
	g, err := BuildDependencyGraph(tab, nil, DependencyOptions{SampleRows: 500, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) < 0.3 {
		t.Errorf("sampled within-theme weight = %.3f, want high", g.Weight(0, 1))
	}
	if _, err := BuildDependencyGraph(tab, nil, DependencyOptions{SampleRows: 500}); err == nil {
		t.Error("SampleRows without Rand should fail")
	}
}

func TestBuildDependencyGraphSubsetAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := twoThemeTable(500, rng)
	g, err := BuildDependencyGraph(tab, []string{"a1", "b1"}, DependencyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Error("subset graph wrong size")
	}
	if _, err := BuildDependencyGraph(tab, []string{"zzz"}, DependencyOptions{}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestMeasurePearsonMissesNonLinear(t *testing.T) {
	// The A1 ablation in miniature: y = x² is invisible to Pearson but
	// not to NMI. This is why the paper chose MI (§3).
	n := 4000
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()*2 - 1
		ys[i] = xs[i] * xs[i]
	}
	tab := store.NewTable("nl")
	tab.MustAddColumn(store.NewFloatColumnFrom("x", xs))
	tab.MustAddColumn(store.NewFloatColumnFrom("y", ys))

	gp, err := BuildDependencyGraph(tab, nil, DependencyOptions{Measure: MeasureAbsPearson})
	if err != nil {
		t.Fatal(err)
	}
	gm, err := BuildDependencyGraph(tab, nil, DependencyOptions{Measure: MeasureNMI})
	if err != nil {
		t.Fatal(err)
	}
	if gp.Weight(0, 1) > 0.15 {
		t.Errorf("pearson weight = %.3f, expected near 0", gp.Weight(0, 1))
	}
	if gm.Weight(0, 1) < 0.3 {
		t.Errorf("NMI weight = %.3f, expected high", gm.Weight(0, 1))
	}
	if MeasureNMI.String() != "nmi" || MeasureAbsPearson.String() != "abs-pearson" {
		t.Error("measure names wrong")
	}
}

func TestMaximumSpanningTree(t *testing.T) {
	g := New([]string{"a", "b", "c", "d"})
	g.SetWeight(0, 1, 0.9)
	g.SetWeight(1, 2, 0.8)
	g.SetWeight(0, 2, 0.1) // would close a cycle
	g.SetWeight(2, 3, 0.5)
	mst := g.MaximumSpanningTree()
	if len(mst) != 3 {
		t.Fatalf("MST edges = %v", mst)
	}
	total := 0.0
	for _, e := range mst {
		total += e.Weight
	}
	if total != 0.9+0.8+0.5 {
		t.Errorf("MST total = %g", total)
	}
}

func TestOracleDistances(t *testing.T) {
	g := New([]string{"a", "b"})
	g.SetWeight(0, 1, 0.3)
	o := g.Oracle()
	if o.Dist(0, 0) != 0 {
		t.Error("self distance must be 0")
	}
	if d := o.Dist(0, 1); d != 0.7 {
		t.Errorf("dist = %g, want 0.7", d)
	}
}
