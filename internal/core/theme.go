package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/store"
)

// Theme is a vertical slice of the database: a group of mutually dependent
// columns describing one aspect of the data (paper §2). Themes are
// produced by partitioning the dependency graph with PAM (§3).
type Theme struct {
	// ID is the theme's position in the explorer's theme list.
	ID int
	// Columns are the member column names, most central first.
	Columns []string
	// Medoid is the most central column — the theme's representative.
	Medoid string
	// Cohesion is the mean pairwise dependency (NMI) within the theme,
	// in [0,1].
	Cohesion float64
}

// Label renders a short human-readable name: the medoid plus the next most
// central members, the way Blaeu's theme view lists them (Fig. 1a/5).
func (t Theme) Label() string {
	head := t.Columns
	if len(head) > 3 {
		head = head[:3]
	}
	label := strings.Join(head, ", ")
	if len(t.Columns) > 3 {
		label += fmt.Sprintf(", … (%d columns)", len(t.Columns))
	}
	return label
}

// themeKMin and themeKMax bound the number of themes tried during
// vertical clustering, capped by the column count.
const themeKMin, themeKMax = 2, 8

// detectThemes builds the dependency graph over the clusterable columns
// and partitions it, choosing the number of themes by silhouette.
func (e *Explorer) detectThemes() error {
	cols := clusterableColumns(e.table)
	if len(cols) == 0 {
		return fmt.Errorf("core: table %q has no clusterable columns", e.table.Name())
	}
	if len(cols) == 1 {
		e.graph = graph.New(cols)
		e.themes = []Theme{{ID: 0, Columns: cols, Medoid: cols[0], Cohesion: 1}}
		return nil
	}
	g, err := graph.BuildDependencyGraph(e.table, cols, graph.DependencyOptions{
		SampleRows: e.opts.DependencySampleRows,
		Rand:       e.rng,
	})
	if err != nil {
		return err
	}
	e.graph = g

	kMax := min(themeKMax, len(cols)-1)
	c, err := g.AutoPartition(min(themeKMin, kMax), kMax, e.rng)
	if err != nil {
		return err
	}

	themes := make([]Theme, c.K)
	for i := range themes {
		themes[i] = Theme{ID: i}
	}
	for vi, label := range c.Labels {
		themes[label].Columns = append(themes[label].Columns, cols[vi])
	}
	for i := range themes {
		if len(c.Medoids) > i {
			themes[i].Medoid = cols[c.Medoids[i]]
		}
		themes[i].Cohesion = themeCohesion(g, themes[i].Columns)
		sortByCentrality(g, themes[i].Columns)
		// Keep the medoid first.
		for j, col := range themes[i].Columns {
			if col == themes[i].Medoid && j > 0 {
				copy(themes[i].Columns[1:j+1], themes[i].Columns[:j])
				themes[i].Columns[0] = themes[i].Medoid
				break
			}
		}
	}
	// Most cohesive themes first, as Blaeu's theme view ranks them.
	sort.SliceStable(themes, func(a, b int) bool { return themes[a].Cohesion > themes[b].Cohesion })
	for i := range themes {
		themes[i].ID = i
	}
	e.themes = themes
	return nil
}

// AddTheme appends a user-defined theme over the given columns and returns
// its ID. Blaeu's theme view lets users "browse and edit the themes"
// (paper §4.1, Fig. 5); this is the programmatic form. Cohesion is
// computed from the dependency graph where the columns are known to it.
func (e *Explorer) AddTheme(cols []string) (int, error) {
	if len(cols) == 0 {
		return 0, fmt.Errorf("core: empty theme")
	}
	for _, c := range cols {
		if e.table.ColumnByName(c) == nil {
			return 0, fmt.Errorf("core: no column %q", c)
		}
	}
	th := Theme{
		ID:      len(e.themes),
		Columns: append([]string(nil), cols...),
		Medoid:  cols[0],
	}
	known := true
	for _, c := range cols {
		if e.graph.Index(c) < 0 {
			known = false
			break
		}
	}
	if known {
		th.Cohesion = themeCohesion(e.graph, th.Columns)
		sortByCentrality(e.graph, th.Columns)
		th.Medoid = th.Columns[0]
	}
	e.themes = append(e.themes, th)
	return th.ID, nil
}

// clusterableColumns drops key-like columns; everything else participates
// in theme detection.
func clusterableColumns(t store.Relation) []string {
	var out []string
	for _, name := range t.ColumnNames() {
		c := t.ColumnByName(name)
		if store.IsLikelyKey(c) {
			continue
		}
		out = append(out, name)
	}
	return out
}

func themeCohesion(g *graph.Graph, cols []string) float64 {
	if len(cols) < 2 {
		return 1
	}
	sum, n := 0.0, 0
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			sum += g.Weight(g.Index(cols[i]), g.Index(cols[j]))
			n++
		}
	}
	return sum / float64(n)
}

// sortByCentrality orders columns by total dependency to the rest of the
// theme, descending, so the most representative columns lead the label.
func sortByCentrality(g *graph.Graph, cols []string) {
	cent := make(map[string]float64, len(cols))
	for _, a := range cols {
		ia := g.Index(a)
		sum := 0.0
		for _, b := range cols {
			if a == b {
				continue
			}
			sum += g.Weight(ia, g.Index(b))
		}
		cent[a] = sum
	}
	sort.SliceStable(cols, func(i, j int) bool {
		if cent[cols[i]] != cent[cols[j]] {
			return cent[cols[i]] > cent[cols[j]]
		}
		return cols[i] < cols[j]
	})
}
