package store_test

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/store"
)

// The ingest benchmarks read the two table shapes the click ledger
// ingests (bench/README.md): the 40-column LOFAR catalogue, whose
// unique SourceID column makes the dictionary work visible, and a
// six-column planted-themes table of nothing but floats. b.SetBytes
// makes `make bench-smoke` print MB of CSV per second; read the figure
// against GOMAXPROCS, since blocks decode in parallel.
var ingestInputs = []struct {
	name string
	gen  func() *store.Table
}{
	{"lofar", func() *store.Table {
		return datagen.LOFAR(datagen.LOFAROptions{N: 50_000}, rand.New(rand.NewSource(1))).Table
	}},
	{"planted", func() *store.Table {
		themes := []datagen.ThemeSpec{{Name: "a", Cols: 3, K: 3, Sep: 128}, {Name: "b", Cols: 3, K: 3, Sep: 128}}
		return datagen.PlantedThemes(200_000, themes, rand.New(rand.NewSource(1))).Table
	}},
}

// writeIngestInput writes the table as CSV and returns its path and size.
func writeIngestInput(b *testing.B, t *store.Table) (string, int64) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "in.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := store.WriteCSV(w, t); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		b.Fatal(err)
	}
	return path, st.Size()
}

var ingestSink int

func BenchmarkReadCSV(b *testing.B) {
	for _, in := range ingestInputs {
		b.Run(in.name, func(b *testing.B) {
			path, size := writeIngestInput(b, in.gen())
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := store.ReadCSVFile(path, nil)
				if err != nil {
					b.Fatal(err)
				}
				ingestSink += t.NumRows()
			}
		})
	}
}

func BenchmarkBuildSegment(b *testing.B) {
	for _, in := range ingestInputs {
		b.Run(in.name, func(b *testing.B) {
			path, size := writeIngestInput(b, in.gen())
			segPath := filepath.Join(filepath.Dir(path), "out.seg")
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := store.BuildSegment(path, segPath, nil)
				if err != nil {
					b.Fatal(err)
				}
				ingestSink += int(rows)
			}
		})
	}
}
