package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/render"
	"repro/internal/store"
)

// countriesCache shares the (expensive, read-only) Countries dataset
// across experiments keyed by seed.
var countriesCache sync.Map

func countriesFor(seed int64) *datagen.Dataset {
	if v, ok := countriesCache.Load(seed); ok {
		return v.(*datagen.Dataset)
	}
	ds := datagen.Countries(rand.New(rand.NewSource(seed)))
	countriesCache.Store(seed, ds)
	return ds
}

func init() {
	register("f1a", "Fig.1a — theme list on the Countries data", runF1a)
	register("f1b", "Fig.1b — labor data map (hours/income hierarchy)", runF1b)
	register("f1c", "Fig.1c — zoom into low-hours/high-income + highlight", runF1c)
	register("f1d", "Fig.1d — projection onto unemployment + highlight", runF1d)
	register("f2", "Fig.2 — dependency graph with two MI communities", runF2)
}

// countriesExplorer builds the shared Countries setup: generated dataset,
// explorer, and a curated Fig.-1 labor theme (the demo user works with the
// named labor columns; theme editing is part of the UI, Fig. 5).
func countriesExplorer(cfg Config) (*datagen.Dataset, *core.Explorer, int, error) {
	ds := countriesFor(cfg.Seed)
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed:                 cfg.Seed,
		SampleSize:           cfg.scaled(2000),
		DependencySampleRows: cfg.scaled(1000),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	laborID, err := e.AddTheme([]string{
		"PctEmployeesWorkingLongHours", "AverageIncome", "TimeDedicatedToLeisure",
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return ds, e, laborID, nil
}

func runF1a(cfg Config) (*Result, error) {
	start := time.Now()
	ds, e, _, err := countriesExplorer(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "f1a", Title: "Theme list on the Countries data (paper Fig. 1a)",
		Headers: []string{"theme", "leading columns", "#cols", "cohesion"}}
	detected := e.Themes()
	var pred [][]string
	for _, th := range detected {
		if th.ID == len(detected)-1 {
			continue // skip the curated theme added for F1b
		}
		pred = append(pred, th.Columns)
		res.addRow(fmt.Sprintf("%d", th.ID), th.Label(), fmt.Sprintf("%d", len(th.Columns)),
			fmt.Sprintf("%.3f", th.Cohesion))
	}
	rec := eval.SetRecovery(ds.Themes, pred)
	res.note("paper: Blaeu lists themes such as unemployment, health and labor statistics")
	res.note("measured: %d themes detected over 376 indicators; planted-theme recovery (weighted Jaccard) = %.3f", len(pred), rec)
	res.note("theme detection took %v on %d sampled rows", time.Since(start).Round(time.Millisecond), cfg.scaled(1000))
	return res, nil
}

func runF1b(cfg Config) (*Result, error) {
	ds, e, laborID, err := countriesExplorer(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := e.SelectTheme(laborID)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	res := &Result{ID: "f1b", Title: "Labor data map (paper Fig. 1b)",
		Headers: []string{"region", "condition", "tuples", "share"}}
	total := 0
	for _, l := range m.Root.Leaves() {
		total += l.Count()
	}
	for i, l := range m.Root.Leaves() {
		res.addRow(fmt.Sprintf("%d", i), l.Describe(), fmt.Sprintf("%d", l.Count()),
			fmt.Sprintf("%.1f%%", 100*float64(l.Count())/float64(total)))
	}
	pred := regionLabels(m, ds.Table.NumRows())
	ari := eval.AdjustedRandIndex(ds.Truth["labor"], pred)
	splitsHours := strings.Contains(m.Root.RenderTree(), "PctEmployeesWorkingLongHours")
	splitsIncome := strings.Contains(m.Root.RenderTree(), "AverageIncome")
	res.note("paper: three clusters in a hierarchy — split on working long hours (~20), then average income (~22)")
	res.note("measured: k=%d, splits on hours=%v income=%v, ARI vs planted labor clusters = %.3f", m.K, splitsHours, splitsIncome, ari)
	res.note("map built in %v from %d samples (tree fidelity %.3f, silhouette %.3f)",
		elapsed.Round(time.Millisecond), m.SampleSize, m.TreeAccuracy, m.Silhouette)
	res.artifact("map", m.Root.RenderTree())
	if cfg.Verbose {
		res.artifact("treemap", render.ASCIIMap(m, 78, 18))
	}
	return res, nil
}

// regionLabels flattens a map's leaf regions into per-row cluster labels.
func regionLabels(m *core.Map, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for _, l := range m.Root.Leaves() {
		l.RowIDs().Each(func(r int) {
			out[r] = l.ClusterID
		})
	}
	return out
}

// lowHoursHighIncomeLeaf finds the map leaf with the lowest mean working
// hours and highest income — the region the demo zooms into (Fig. 1c).
func lowHoursHighIncomeLeaf(e *core.Explorer, m *core.Map) *core.Region {
	hours := e.Table().ColumnByName("PctEmployeesWorkingLongHours")
	income := e.Table().ColumnByName("AverageIncome")
	var best *core.Region
	bestScore := -1e18
	for _, l := range m.Root.Leaves() {
		if l.Count() == 0 {
			continue
		}
		var h, inc float64
		l.RowIDs().Each(func(r int) {
			h += hours.Float(r)
			inc += income.Float(r)
		})
		score := inc/float64(l.Count()) - h/float64(l.Count())
		if score > bestScore {
			bestScore, best = score, l
		}
	}
	return best
}

func runF1c(cfg Config) (*Result, error) {
	ds, e, laborID, err := countriesExplorer(cfg)
	if err != nil {
		return nil, err
	}
	m, err := e.SelectTheme(laborID)
	if err != nil {
		return nil, err
	}
	target := lowHoursHighIncomeLeaf(e, m)
	start := time.Now()
	zm, err := e.Zoom(target.Path...)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	res := &Result{ID: "f1c", Title: "Zoom + highlight (paper Fig. 1c)",
		Headers: []string{"sub-region", "condition", "tuples"}}
	for i, l := range zm.Root.Leaves() {
		res.addRow(fmt.Sprintf("%d", i), l.Describe(), fmt.Sprintf("%d", l.Count()))
	}
	h, err := e.Highlight("CountryName")
	if err != nil {
		return nil, err
	}
	// Score the zoom sub-map against the planted sub-structure.
	pred := regionLabels(zm, ds.Table.NumRows())
	ari := eval.AdjustedRandIndex(ds.Truth["labor_zoom"], pred)
	res.note("paper: zooming subdivides the low-hours/high-income region; highlighting shows Switzerland, Norway, Canada")
	res.note("measured: zoom re-clustered %d tuples into k=%d in %v; ARI vs planted sub-clusters = %.3f",
		e.State().Rows.Len(), zm.K, elapsed.Round(time.Millisecond), ari)
	res.note("highlighted countries: %s", strings.Join(h.SampleValues, ", "))
	res.note("implicit query: %s", e.Query())
	found := map[string]bool{}
	for _, v := range h.SampleValues {
		found[v] = true
	}
	hit := 0
	for _, want := range []string{"Switzerland", "Norway", "Canada"} {
		if found[want] {
			hit++
		}
	}
	res.note("Switzerland/Norway/Canada present in highlight: %d/3", hit)
	res.artifact("zoomed map", zm.Root.RenderTree())
	return res, nil
}

func runF1d(cfg Config) (*Result, error) {
	_, e, laborID, err := countriesExplorer(cfg)
	if err != nil {
		return nil, err
	}
	m, err := e.SelectTheme(laborID)
	if err != nil {
		return nil, err
	}
	target := lowHoursHighIncomeLeaf(e, m)
	if _, err := e.Zoom(target.Path...); err != nil {
		return nil, err
	}
	// Project onto the detected theme containing Unemployment.
	unempID := -1
	for _, th := range e.Themes() {
		for _, c := range th.Columns {
			if c == "Unemployment" {
				unempID = th.ID
				break
			}
		}
	}
	if unempID < 0 {
		// Theme detection placed it elsewhere: curate it, as a user would.
		unempID, err = e.AddTheme([]string{"Unemployment", "LongTermUnemployment", "FemaleUnemployment"})
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	pm, err := e.Project(unempID)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	res := &Result{ID: "f1d", Title: "Projection onto unemployment + highlight (paper Fig. 1d)",
		Headers: []string{"region", "condition", "tuples"}}
	for i, l := range pm.Root.Leaves() {
		res.addRow(fmt.Sprintf("%d", i), l.Describe(), fmt.Sprintf("%d", l.Count()))
	}
	h, err := e.Highlight("CountryName")
	if err != nil {
		return nil, err
	}
	// Every split of the projected map must use a column of the
	// unemployment theme (named or filler indicator).
	splits := true
	for _, l := range pm.Root.Leaves() {
		for _, p := range l.Condition {
			inTheme := false
			for _, c := range e.Themes()[unempID].Columns {
				if strings.Contains(p.String(), c) {
					inTheme = true
					break
				}
			}
			if !inTheme {
				splits = false
			}
		}
	}
	res.note("paper: projecting unemployment indicators splits the selection near Unemployment = 8 and still shows Canada")
	res.note("measured: projection kept %d tuples, split on unemployment-theme columns = %v, in %v",
		e.State().Rows.Len(), splits, elapsed.Round(time.Millisecond))
	res.note("highlighted countries: %s", strings.Join(h.SampleValues, ", "))
	res.artifact("projected map", pm.Root.RenderTree())
	return res, nil
}

func runF2(cfg Config) (*Result, error) {
	// Six columns with the exact structure of paper Fig. 2: an
	// unemployment community and a health community.
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.scaled(4000)
	unemp := make([]float64, n)
	health := make([]float64, n)
	for i := range unemp {
		unemp[i] = rng.NormFloat64()
		health[i] = rng.NormFloat64()
	}
	derive := func(base []float64, scale, noise float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base[i]*scale + rng.NormFloat64()*noise
		}
		return out
	}
	t := store.NewTable("fig2")
	t.MustAddColumn(store.NewFloatColumnFrom("Unemployment", derive(unemp, 1, 0.3)))
	t.MustAddColumn(store.NewFloatColumnFrom("LongTermUnemployment", derive(unemp, 0.8, 0.3)))
	t.MustAddColumn(store.NewFloatColumnFrom("FemaleUnemployment", derive(unemp, 1.2, 0.3)))
	t.MustAddColumn(store.NewFloatColumnFrom("HealthInsurance", derive(health, 1, 0.3)))
	t.MustAddColumn(store.NewFloatColumnFrom("LifeExpectancy", derive(health, -0.9, 0.3)))
	t.MustAddColumn(store.NewFloatColumnFrom("HealthSpending", derive(health, 0.7, 0.3)))

	g, err := graph.BuildDependencyGraph(t, nil, graph.DependencyOptions{})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "f2", Title: "Dependency graph (paper Fig. 2)",
		Headers: []string{"column A", "column B", "NMI weight"}}
	for _, edge := range g.Edges(0.05) {
		res.addRow(g.Names()[edge.I], g.Names()[edge.J], fmt.Sprintf("%.3f", edge.Weight))
	}
	c, err := g.Partition(2)
	if err != nil {
		return nil, err
	}
	groups := make([][]string, 2)
	for vi, l := range c.Labels {
		groups[l] = append(groups[l], g.Names()[vi])
	}
	rec := eval.SetRecovery([][]string{
		{"Unemployment", "LongTermUnemployment", "FemaleUnemployment"},
		{"HealthInsurance", "LifeExpectancy", "HealthSpending"},
	}, groups)
	res.note("paper: the graph shows two communities — unemployment columns and health columns")
	res.note("measured: PAM partition = %v | %v; community recovery = %.3f",
		groups[0], groups[1], rec)
	var mst strings.Builder
	for _, edge := range g.MaximumSpanningTree() {
		fmt.Fprintf(&mst, "%s —(%.2f)— %s\n", g.Names()[edge.I], edge.Weight, g.Names()[edge.J])
	}
	res.artifact("maximum spanning tree (sparse rendering of the graph)", mst.String())
	return res, nil
}
