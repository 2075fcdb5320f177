package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/store"
)

func init() {
	register("s2", "§4.2 scenario 2 — Countries and Work (6,823×378), walked as Fig.1a–1d", runCountries)
	register("f2", "Fig.2 — dependency graph with two MI communities", runF2)
}

// The Fig. 1 columns the walk reads by name.
const (
	hoursCol  = "PctEmployeesWorkingLongHours"
	incomeCol = "AverageIncome"
)

// runCountries walks the demo's Countries and Work scenario (§4.2) the way
// Fig. 1 shows it, on one explorer: the detected themes (1a), the map of a
// curated labor theme (1b; the demo user works with the named labor
// columns, and theme editing is part of the UI, Fig. 5), a zoom into its
// low-hours/high-income region with the countries there highlighted (1c),
// and a projection of that selection onto the unemployment theme (1d).
// The first column of every row names the figure panel it reproduces.
func runCountries(cfg Config) (*Result, error) {
	ds := datagen.Countries(rand.New(rand.NewSource(cfg.Seed)))
	start := time.Now()
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed:                 cfg.Seed,
		SampleSize:           cfg.scaled(2000),
		DependencySampleRows: cfg.scaled(1000),
	})
	if err != nil {
		return nil, err
	}
	detectTime := time.Since(start)
	res := &Result{ID: "s2", Title: "Countries and Work: 6,823 × 378, the walk of Fig. 1 (paper §4.2, Fig. 1a–1d)",
		Headers: []string{"item", "detail", "value"}}

	// Fig. 1a: the theme list.
	var pred [][]string
	for _, th := range e.Themes() {
		pred = append(pred, th.Columns)
		res.addRow(fmt.Sprintf("1a theme %d", th.ID), th.Label(),
			fmt.Sprintf("%.3f", th.Cohesion))
	}
	res.addRow("1a theme recovery", fmt.Sprintf("weighted Jaccard vs %d planted themes; detected on %d rows in %v",
		len(ds.Themes), cfg.scaled(1000), detectTime.Round(time.Millisecond)),
		fmt.Sprintf("%.3f", eval.SetRecovery(ds.Themes, pred)))

	// Fig. 1b: the labor map.
	laborID, err := e.AddTheme([]string{hoursCol, incomeCol, "TimeDedicatedToLeisure"})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	m, err := e.SelectTheme(laborID)
	if err != nil {
		return nil, err
	}
	regionRows(res, "1b", m)
	res.addRow("1b labor map ARI", fmt.Sprintf("vs planted labor clusters; k=%d from %d samples in %v (tree fidelity %.3f)",
		m.K, m.SampleSize, time.Since(start).Round(time.Millisecond), m.TreeAccuracy),
		fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["labor"], regionLabels(m, ds.Table.NumRows()))))
	split := map[string]bool{}
	for _, l := range m.Root.Leaves() {
		for _, p := range l.Condition {
			if c, ok := p.(store.NumCmp); ok {
				split[c.Col] = true
			}
		}
	}
	res.addRow("1b splits on hours and income", "1 when the map splits on both "+hoursCol+" and "+incomeCol,
		oneIf(split[hoursCol] && split[incomeCol]))

	// §4.2: "why working in Canada is generally a good idea" — the region
	// Fig. 1c zooms into holds Canada's regions.
	target := lowHoursHighIncomeLeaf(e, m)
	names := ds.Table.ColumnByName("CountryName").(*store.StringColumn)
	canadaIn, canadaAll := 0, 0
	target.RowIDs().Each(func(r int) {
		if names.Value(r) == "Canada" {
			canadaIn++
		}
	})
	for i := range ds.Table.NumRows() {
		if names.Value(i) == "Canada" {
			canadaAll++
		}
	}
	res.addRow("4.2 Canada in low-hours/high-income", fmt.Sprintf("%d of %d Canadian regions in %s", canadaIn, canadaAll, target.Describe()),
		fmt.Sprintf("%.3f", float64(canadaIn)/float64(canadaAll)))

	// Fig. 1c: zoom into that region and highlight the countries.
	start = time.Now()
	zm, err := e.Zoom(target.Path...)
	if err != nil {
		return nil, err
	}
	zoomTime := time.Since(start)
	regionRows(res, "1c", zm)
	res.addRow("1c zoom ARI", fmt.Sprintf("vs planted sub-clusters; %d tuples re-clustered into k=%d in %v",
		e.State().Rows.Len(), zm.K, zoomTime.Round(time.Millisecond)),
		fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["labor_zoom"], regionLabels(zm, ds.Table.NumRows()))))
	h, err := e.Highlight("CountryName")
	if err != nil {
		return nil, err
	}
	hit := 0
	for _, want := range []string{"Switzerland", "Norway", "Canada"} {
		if slices.Contains(h.SampleValues, want) {
			hit++
		}
	}
	res.addRow("1c Switzerland/Norway/Canada highlighted", strings.Join(h.SampleValues, ", "), fmt.Sprintf("%d", hit))
	zoomQuery := e.Query()

	// Fig. 1d: project the selection onto the detected theme holding
	// Unemployment, or curate it as a user would if detection put it
	// elsewhere.
	unempID := slices.IndexFunc(e.Themes(), func(th core.Theme) bool { return slices.Contains(th.Columns, "Unemployment") })
	if unempID < 0 {
		if unempID, err = e.AddTheme([]string{"Unemployment", "LongTermUnemployment", "FemaleUnemployment"}); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	pm, err := e.Project(unempID)
	if err != nil {
		return nil, err
	}
	projectTime := time.Since(start)
	regionRows(res, "1d", pm)
	if h, err = e.Highlight("CountryName"); err != nil {
		return nil, err
	}
	res.addRow("1d projection ARI", fmt.Sprintf("vs planted unemployment clusters; %d tuples mapped on theme %d in %v",
		e.State().Rows.Len(), unempID, projectTime.Round(time.Millisecond)),
		fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["unemployment"], regionLabels(pm, ds.Table.NumRows()))))
	res.addRow("1d Canada highlighted", strings.Join(h.SampleValues, ", "), oneIf(slices.Contains(h.SampleValues, "Canada")))

	res.note("paper Fig. 1a: Blaeu lists themes such as unemployment, health and labor statistics")
	res.note("paper Fig. 1b: three clusters in a hierarchy — split on working long hours (~20), then average income (~22)")
	res.note("paper Fig. 1c: zooming subdivides the low-hours/high-income region; highlighting shows Switzerland, Norway, Canada")
	res.note("paper Fig. 1d: projecting unemployment indicators splits the selection near Unemployment = 8 and still shows Canada")
	res.note("paper §4.2: 'our users will discover why working in Canada is generally a good idea'")
	res.note("implicit query after the zoom: %s", zoomQuery)
	res.artifact("labor map", m.Root.RenderTree())
	res.artifact("zoomed map", zm.Root.RenderTree())
	res.artifact("projected map", pm.Root.RenderTree())
	return res, nil
}

// oneIf renders a yes/no claim as a table value: 1 or 0.
func oneIf(ok bool) string {
	if ok {
		return "1"
	}
	return "0"
}

// regionRows adds one row per leaf region of m: its condition and tuples.
func regionRows(res *Result, panel string, m *core.Map) {
	for i, l := range m.Root.Leaves() {
		res.addRow(fmt.Sprintf("%s region %d", panel, i), l.Describe(), fmt.Sprintf("%d", l.Count()))
	}
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
	hours := e.Table().ColumnByName(hoursCol)
	income := e.Table().ColumnByName(incomeCol)
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
	c, err := g.Partition(2)
	if err != nil {
		return nil, err
	}
	// Every column pair, heaviest first: whether the planted structure
	// (the first three columns derive from one latent, the last three
	// from another) and the PAM partition put its columns together.
	res := &Result{ID: "f2", Title: "Dependency graph (paper Fig. 2)",
		Headers: []string{"column A", "column B", "NMI weight", "planted", "PAM"}}
	together := func(same bool) string {
		if same {
			return "together"
		}
		return "apart"
	}
	for _, edge := range g.Edges(-1) {
		res.addRow(g.Names()[edge.I], g.Names()[edge.J], fmt.Sprintf("%.3f", edge.Weight),
			together(edge.I/3 == edge.J/3), together(c.Labels[edge.I] == c.Labels[edge.J]))
	}
	res.note("paper: the graph shows two communities — unemployment columns and health columns")
	var mst strings.Builder
	for _, edge := range g.MaximumSpanningTree() {
		fmt.Fprintf(&mst, "%s —(%.2f)— %s\n", g.Names()[edge.I], edge.Weight, g.Names()[edge.J])
	}
	res.artifact("maximum spanning tree (sparse rendering of the graph)", mst.String())
	return res, nil
}
