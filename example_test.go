package blaeu_test

import (
	"fmt"
	"strings"

	blaeu "repro"
)

// Example demonstrates the full documented workflow: load a table, detect
// themes, build a map, zoom, highlight and roll back.
func Example() {
	csv := `country,hours,income
Alphaland,25,15
Betaland,26,14
Gammaland,24,16
Deltaland,8,30
Epsilonia,9,31
Zetania,7,29
Etaland,25,16
Thetia,8,32
Iotaland,26,15
Kappaland,9,30
Lambdia,24,14
Mutopia,7,31
Nuland,25,15
Xitopia,8,30
Omicronia,26,16
Pitania,9,29
Rholand,24,15
Sigmaland,7,30
Tauland,25,14
Upsilonia,8,31
`
	table, err := blaeu.ReadCSV(strings.NewReader(csv), nil)
	if err != nil {
		panic(err)
	}
	opts := blaeu.DefaultOptions()
	opts.Seed = 1
	ex, err := blaeu.Open(table, opts)
	if err != nil {
		panic(err)
	}
	id, err := ex.AddTheme([]string{"hours", "income"})
	if err != nil {
		panic(err)
	}
	m, err := ex.SelectTheme(id)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clusters: %d\n", m.K)
	for _, leaf := range m.Root.Leaves() {
		fmt.Printf("region %v: %d tuples\n", leaf.Describe(), leaf.Count())
	}
	if _, err := ex.Zoom(m.Root.Leaves()[0].Path...); err != nil {
		panic(err)
	}
	h, err := ex.Highlight("country")
	if err != nil {
		panic(err)
	}
	fmt.Printf("tuples in zoomed region: %d\n", h.Stats.Count)
	if err := ex.Rollback(); err != nil {
		panic(err)
	}
	fmt.Printf("after rollback: %d tuples\n", ex.State().Rows.Len())
	// Output:
	// clusters: 2
	// region hours < 16.5: 10 tuples
	// region hours >= 16.5: 10 tuples
	// tuples in zoomed region: 10
	// after rollback: 20 tuples
}

// ExampleExplorer_RunSQL shows the Select-Project escape hatch.
func ExampleExplorer_RunSQL() {
	csv := "name,score\na,3\nb,1\nc,2\nd,1\ne,3\nf,2\ng,1\nh,2\n"
	table, _ := blaeu.ReadCSV(strings.NewReader(csv), &blaeu.CSVOptions{TableName: "t"})
	opts := blaeu.DefaultOptions()
	opts.Seed = 1
	ex, err := blaeu.Open(table, opts)
	if err != nil {
		panic(err)
	}
	res, err := ex.RunSQL("SELECT name FROM t WHERE score >= 2 ORDER BY score DESC")
	if err != nil {
		panic(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		fmt.Println(res.Row(i)[0])
	}
	// Output:
	// a
	// e
	// c
	// f
	// h
}
