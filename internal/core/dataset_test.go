package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// graphWeights copies every weight of g, to tell later whether g changed.
func graphWeights(g *graph.Graph) [][]float64 {
	w := make([][]float64, g.N())
	for i := range w {
		for j := 0; j < g.N(); j++ {
			w[i] = append(w[i], g.Weight(i, j))
		}
	}
	return w
}

// TestDatasetConcurrentOpens opens eight sessions on one Dataset at
// once; each adds a theme of its own and maps it. No session sees
// another's theme, the Dataset's themes and graph are as detection left
// them, and every map is the one a session that detected themes itself
// builds.
func TestDatasetConcurrentOpens(t *testing.T) {
	table := pinnedTable(500, 31).Table
	opts := Options{Seed: 2, SampleSize: 300}
	d, err := NewDataset(table, opts)
	if err != nil {
		t.Fatal(err)
	}
	themes := slices.Clone(d.themes)
	weights := graphWeights(d.graph)
	cols := table.ColumnNames()
	// themeCols is session i's own theme: two columns of the table.
	themeCols := func(i int) []string { return []string{cols[i%len(cols)], cols[(i+1)%len(cols)]} }

	const sessions = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]string, sessions)
	errs := make(chan error, sessions)
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e := d.Open()
			id, err := e.AddTheme(themeCols(i))
			if err != nil {
				errs <- err
				return
			}
			if own := e.Themes(); len(own) != len(themes)+1 || !reflect.DeepEqual(own[:len(themes)], themes) ||
				!sameSet(own[id].Columns, themeCols(i)) {
				t.Errorf("session %d sees themes %v, want the dataset's %v plus its own %v", i, e.Themes(), themes, themeCols(i))
			}
			m, err := e.SelectTheme(id)
			if err != nil {
				errs <- err
				return
			}
			var sb strings.Builder
			mapDigest(&sb, "select", m)
			got[i] = sb.String()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.themes, themes) {
		t.Errorf("the dataset's themes changed: %v, want %v", d.themes, themes)
	}
	if !reflect.DeepEqual(graphWeights(d.graph), weights) {
		t.Error("the dataset's dependency graph changed")
	}
	for i := range sessions {
		fresh, err := NewExplorer(table, opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := fresh.AddTheme(themeCols(i))
		if err != nil {
			t.Fatal(err)
		}
		m, err := fresh.SelectTheme(id)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		mapDigest(&sb, "select", m)
		if got[i] != sb.String() {
			t.Errorf("session %d mapped\n%s\na fresh explorer maps\n%s", i, got[i], sb.String())
		}
	}
}

// sameSet reports whether a and b hold the same strings in any order
// (AddTheme orders a theme's columns by centrality).
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
