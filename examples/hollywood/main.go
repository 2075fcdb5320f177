// Hollywood reproduces the paper's first demonstration scenario (§4.2):
// "Which films are the most profitable? Which are those that fail? How do
// critics and commercial success relate to each other?" — answered with
// maps instead of SQL.
package main

import (
	"fmt"
	"log"
	"math/rand"

	blaeu "repro"
	"repro/internal/datagen"
)

func main() {
	ds := datagen.Hollywood(rand.New(rand.NewSource(7)))
	fmt.Printf("Hollywood dataset: %d movies × %d columns\n\n", ds.Table.NumRows(), ds.Table.NumCols())

	opts := blaeu.DefaultOptions()
	opts.Seed = 7
	ex, err := blaeu.Open(ds.Table, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(blaeu.ThemeList(ex.Themes()))

	// Question 1: which films are profitable, which fail? Map the money
	// columns.
	moneyID, err := ex.AddTheme([]string{"Budget", "WorldwideGross", "Profitability"})
	if err != nil {
		log.Fatal(err)
	}
	m, err := ex.SelectTheme(moneyID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMoney map:")
	fmt.Print(m.Root.RenderTree())

	// Inspect each region: mean profitability and the dominant genres.
	prof := ds.Table.ColumnByName("Profitability")
	for i, l := range m.Root.Leaves() {
		sum := 0.0
		l.RowIDs().Each(func(r int) {
			sum += prof.Float(r)
		})
		h, err := ex.Highlight("Genre", l.Path...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("region %d (%s): %d films, mean profitability %.2f, genres %v\n",
			i, l.Describe(), l.Count(), sum/float64(l.Count()), h.SampleValues)
	}

	// Question 2: how do critics and commercial success relate? Project
	// the same films onto the review columns.
	reviewID, err := ex.AddTheme([]string{"RottenTomatoes", "AudienceScore"})
	if err != nil {
		log.Fatal(err)
	}
	// First zoom into the most profitable region...
	var best *blaeu.Region
	bestMean := -1e18
	for _, l := range m.Root.Leaves() {
		sum := 0.0
		l.RowIDs().Each(func(r int) {
			sum += prof.Float(r)
		})
		if mean := sum / float64(l.Count()); mean > bestMean {
			bestMean, best = mean, l
		}
	}
	if _, err := ex.Zoom(best.Path...); err != nil {
		log.Fatal(err)
	}
	// ...then look at their reviews.
	pm, err := ex.Project(reviewID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nReviews of the most profitable films (%d selected):\n", ex.State().Rows.Len())
	fmt.Print(pm.Root.RenderTree())
	h, err := ex.Highlight("RottenTomatoes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RottenTomatoes there: mean %.0f (min %.0f, max %.0f)\n",
		h.Stats.Mean, h.Stats.Min, h.Stats.Max)
	fmt.Printf("\nImplicit query: %s\n", ex.Query())
}
