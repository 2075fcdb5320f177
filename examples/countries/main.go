// Countries walks through the paper's running example (Fig. 1) on the
// synthetic OECD-style dataset: list the themes (1a), map the labor theme
// (1b), zoom into the low-hours/high-income region and highlight the
// countries (1c), project onto unemployment (1d), then roll everything
// back.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	blaeu "repro"
	"repro/internal/datagen"
)

func main() {
	fmt.Println("Generating the Countries-and-Work dataset (6,823 regions × 378 indicators)...")
	ds := datagen.Countries(rand.New(rand.NewSource(1)))

	opts := blaeu.DefaultOptions()
	opts.Seed = 1
	opts.DependencySampleRows = 1000
	start := time.Now()
	ex, err := blaeu.Open(ds.Table, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theme detection over 376 indicators took %v\n\n", time.Since(start).Round(time.Millisecond))

	// --- Fig. 1a: the theme view ---
	fmt.Print(blaeu.ThemeList(ex.Themes()))

	// --- Fig. 1b: the labor data map ---
	laborID, err := ex.AddTheme([]string{
		"PctEmployeesWorkingLongHours", "AverageIncome", "TimeDedicatedToLeisure",
	})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	m, err := ex.SelectTheme(laborID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLabor map built in %v (k=%d, silhouette %.2f):\n",
		time.Since(start).Round(time.Millisecond), m.K, m.Silhouette)
	fmt.Print(m.Root.RenderTree())

	// --- Fig. 1c: zoom into low working hours + high income, highlight ---
	hours := ds.Table.ColumnByName("PctEmployeesWorkingLongHours")
	income := ds.Table.ColumnByName("AverageIncome")
	var target *blaeu.Region
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
		if score := inc/float64(l.Count()) - h/float64(l.Count()); score > bestScore {
			bestScore, target = score, l
		}
	}
	zm, err := ex.Zoom(target.Path...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nZoomed into %q (%d regions found inside):\n", target.Describe(), len(zm.Root.Leaves()))
	fmt.Print(zm.Root.RenderTree())
	hl, err := ex.Highlight("CountryName")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Countries with low hours and high income: %v\n", hl.SampleValues)

	// --- Fig. 1d: projection onto unemployment indicators ---
	unempID := -1
	for _, th := range ex.Themes() {
		for _, c := range th.Columns {
			if c == "Unemployment" {
				unempID = th.ID
			}
		}
	}
	if unempID < 0 {
		unempID, err = ex.AddTheme([]string{"Unemployment", "LongTermUnemployment", "FemaleUnemployment"})
		if err != nil {
			log.Fatal(err)
		}
	}
	pm, err := ex.Project(unempID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nProjected the same selection onto unemployment indicators:")
	fmt.Print(pm.Root.RenderTree())
	fmt.Printf("Implicit query so far:\n  %s\n", ex.Query())

	// --- rollback all the way ---
	steps := 0
	for ex.Rollback() == nil {
		steps++
	}
	fmt.Printf("\nRolled back %d steps; selection is the full table again (%d tuples)\n",
		steps, ex.State().Rows.Len())
}
