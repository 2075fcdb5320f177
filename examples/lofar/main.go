// LOFAR demonstrates Blaeu at scale (paper §4.2, third scenario): a
// synthetic radio-astronomy catalogue with 100,000s of sources. The point
// is latency — multi-scale sampling keeps every action interactive no
// matter how large the selection is — and serendipity: the map isolates
// the imaging-artifact population without any prior knowledge.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	blaeu "repro"
	"repro/internal/datagen"
)

func main() {
	n := flag.Int("n", 150000, "number of light sources")
	flag.Parse()

	fmt.Printf("Generating a LOFAR-style catalogue with %d sources × 40 columns...\n", *n)
	ds := datagen.LOFAR(datagen.LOFAROptions{N: *n}, rand.New(rand.NewSource(1)))

	opts := blaeu.DefaultOptions()
	opts.Seed = 1
	opts.SampleSize = 2000 // cluster at most 2000 tuples per action
	opts.DependencySampleRows = 1000

	start := time.Now()
	ex, err := blaeu.Open(ds.Table, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theme detection: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Print(blaeu.ThemeList(ex.Themes()))

	// Map the physical-properties theme: flux, spectrum and shape carry
	// the population signature.
	id, err := ex.AddTheme([]string{
		"SpectralIndex", "TotalFlux", "MajorAxis", "AxisRatio",
		"Variability", "SNR", "Compactness",
	})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	m, err := ex.SelectTheme(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMap over %d sources built in %v (clustered a %d-tuple sample, k=%d):\n",
		*n, time.Since(start).Round(time.Millisecond), m.SampleSize, m.K)
	fmt.Print(m.Root.RenderTree())

	// The artifact population has extreme axis ratios: find the region
	// with the highest mean axis ratio and inspect it.
	ar := ds.Table.ColumnByName("AxisRatio")
	var worst *blaeu.Region
	worstMean := -1.0
	for _, l := range m.Root.Leaves() {
		if l.Count() == 0 {
			continue
		}
		sum := 0.0
		l.RowIDs().Each(func(r int) {
			sum += ar.Float(r)
		})
		if mean := sum / float64(l.Count()); mean > worstMean {
			worstMean, worst = mean, l
		}
	}
	fmt.Printf("\nSuspicious region (mean axis ratio %.1f): %s — %d sources\n",
		worstMean, worst.Describe(), worst.Count())

	start = time.Now()
	if _, err := ex.Zoom(worst.Path...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Zoom at full scale took %v (re-clustered a fresh sample)\n",
		time.Since(start).Round(time.Millisecond))

	h, err := ex.Highlight("SNR")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SNR inside: mean %.1f (catalogue-wide artifacts are low-significance)\n", h.Stats.Mean)
	hd, err := ex.RegionHistogram("AxisRatio", 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(blaeu.ASCIIHistogram(hd, 40))
	fmt.Printf("\nImplicit query: %s\n", ex.Query())
}
