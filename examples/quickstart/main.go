// Quickstart: load a CSV, detect themes, build a data map, and navigate it
// with zoom / highlight / rollback — the minimal Blaeu workflow through the
// public API only.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	blaeu "repro"
)

// csvData is a miniature countries table, the running example of the paper.
const csvData = `country,hours_worked,income,leisure,unemployment
Switzerland,7.2,33.5,15.1,4.4
Norway,8.1,32.0,15.3,3.9
Canada,9.0,30.1,14.8,6.1
Denmark,8.4,29.5,15.6,5.5
Netherlands,7.9,28.7,15.9,4.8
France,10.2,25.1,15.2,9.4
Spain,11.0,21.5,14.9,17.2
Italy,12.4,22.3,14.6,11.8
Poland,13.8,17.2,14.1,7.1
Hungary,12.9,15.8,14.0,6.3
Chile,24.5,14.2,12.5,7.0
Mexico,28.2,12.1,12.0,5.2
Korea,22.7,20.9,12.8,3.6
Japan,21.9,25.5,13.1,3.2
Greece,23.4,16.4,13.3,21.5
UnitedStates,20.8,29.8,13.5,6.8
Iceland,8.8,28.4,15.0,4.1
Sweden,8.6,29.9,15.4,7.4
Finland,8.2,27.1,15.5,8.0
Austria,9.5,28.9,14.9,5.0
`

func main() {
	// 1. Load a table (CSV with header; types are inferred).
	path := filepath.Join(os.TempDir(), "blaeu-quickstart.csv")
	if err := os.WriteFile(path, []byte(csvData), 0o644); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	table, err := blaeu.ReadCSVFile(path, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Loaded %d rows × %d columns\n\n", table.NumRows(), table.NumCols())

	// 2. Open an exploration session: Blaeu clusters the columns into
	//    themes (vertical clustering).
	opts := blaeu.DefaultOptions()
	opts.Seed = 42
	ex, err := blaeu.Open(table, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(blaeu.ThemeList(ex.Themes()))

	// 3. Build the data map of a curated labor theme (horizontal
	//    clustering + decision-tree description).
	laborID, err := ex.AddTheme([]string{"hours_worked", "income", "leisure"})
	if err != nil {
		log.Fatal(err)
	}
	m, err := ex.SelectTheme(laborID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nData map (regions are interpretable predicates):")
	fmt.Print(m.Root.RenderTree())
	fmt.Print(blaeu.ASCIIMap(m, 76, 12))

	// 4. Zoom into the first region and highlight the country names.
	leaf := m.Root.Leaves()[0]
	if _, err := ex.Zoom(leaf.Path...); err != nil {
		log.Fatal(err)
	}
	h, err := ex.Highlight("country")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nZoomed into: %s\nCountries there: %v\n", leaf.Describe(), h.SampleValues)
	fmt.Printf("Implicit query: %s\n", ex.Query())

	// 5. Every action is reversible.
	if err := ex.Rollback(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAfter rollback: %d tuples selected again\n", ex.State().Rows.Len())
}
