package store_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/store"
)

// TestTablesKeepNoStringIndex: a string column a table holds keeps no
// value -> code map, whether datagen or ReadCSV built the table. An
// Append afterwards still gives an existing value its old code, leaving
// Cardinality where it was, and a new value the next code.
func TestTablesKeepNoStringIndex(t *testing.T) {
	lofar := datagen.LOFAR(datagen.LOFAROptions{N: 2000}, rand.New(rand.NewSource(1))).Table
	var csv bytes.Buffer
	if err := store.WriteCSV(&csv, lofar); err != nil {
		t.Fatal(err)
	}
	read, err := store.ReadCSV(&csv, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]*store.Table{"datagen": lofar, "ReadCSV": read} {
		checked := 0
		for ci := range tab.NumCols() {
			sc, ok := tab.Column(ci).(*store.StringColumn)
			if !ok {
				continue
			}
			checked++
			if store.HasStringIndex(sc) {
				t.Errorf("%s: column %s keeps a string index", name, sc.Name())
			}
			card, row := sc.Cardinality(), 0
			for sc.IsNull(row) {
				row++
			}
			sc.Append(sc.Value(row))
			if got, want := sc.Code(sc.Len()-1), sc.Code(row); got != want || sc.Cardinality() != card {
				t.Errorf("%s: appending %s's %q gave code %d and cardinality %d, want %d and %d",
					name, sc.Name(), sc.Value(row), got, sc.Cardinality(), want, card)
			}
			sc.Append("never seen before")
			if got := sc.Code(sc.Len() - 1); got != int32(card) || sc.Cardinality() != card+1 {
				t.Errorf("%s: appending a new value to %s gave code %d and cardinality %d, want %d and %d",
					name, sc.Name(), got, sc.Cardinality(), card, card+1)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: the table has no string column", name)
		}
	}
}
