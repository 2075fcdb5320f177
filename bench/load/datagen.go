package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/store"
)

// The segment workload's table: plantedThemes themes of plantedCols
// float columns each, every column a noisy affine image of its theme's
// latent signal — the datagen.PlantedThemes law, with nested clusters.
// Every theme plants the same hierarchy, so whichever theme detection
// ranks first costs the same to map.
const (
	plantedThemes = 2
	plantedCols   = 3
)

// plantedLevels nests the clusters of every theme three deep: 3
// clusters 128 apart, each made of 2 clusters 16 apart, each made of 2
// clusters 4 apart, at noise 1. The script zooms twice, and a zoom into
// one structureless blob makes AutoK split it wherever the seed's
// sample happens to fall (measured: region sizes, and with them a
// round's allocation and CPU time, then move ±4% with the seed). With a
// real cluster pair waiting at each depth, and each level's silhouette
// well clear of the next one's (≈0.94 vs 0.85 vs 0.72), theme detection
// and AutoK land on the planted answer for every seed, and the work a
// click does is a property of the workload, not of the seed. The
// clustering layers see their hard input on the LOFAR workloads; this
// one is about the row-proportional work underneath them.
var plantedLevels = []struct {
	k   int
	sep float64
}{{3, 128}, {2, 16}, {2, 4}}

const plantedNoise = 1.0

// writeTable writes the workload's table of the given size to path as
// CSV and returns the bytes written. It is input generation: outside
// set-up and every timed window.
func writeTable(path string, w *workloadSpec, rows int, seed int64) (int64, error) {
	if w.seg {
		return writePlantedCSV(path, rows, seed)
	}
	ds := datagen.LOFAR(datagen.LOFAROptions{N: rows}, rand.New(rand.NewSource(seed)))
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := store.WriteCSV(bw, ds.Table); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), f.Close()
}

// writePlantedCSV streams the planted table to path row by row (no
// in-memory table, so the 100-MB segment input costs no heap) and
// returns the bytes written. Column j of a theme is latent*scale_j +
// shift_j + noise, latent = the row's center in the nested hierarchy +
// noise, the cluster at each level drawn uniformly; scale and shift are
// drawn once per column from the seed.
func writePlantedCSV(path string, rows int, seed int64) (int64, error) {
	rng := rand.New(rand.NewSource(seed))
	type colLaw struct{ scale, shift float64 }
	var laws [plantedThemes][plantedCols]colLaw
	for ti := range laws {
		for j := range laws[ti] {
			scale := 0.5 + rng.Float64()*2
			if rng.Intn(2) == 0 {
				scale = -scale
			}
			laws[ti][j] = colLaw{scale: scale, shift: rng.NormFloat64() * 3}
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var n int64
	buf := make([]byte, 0, 1<<17)
	for ti := range laws {
		for j := range laws[ti] {
			if ti+j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, byte('a'+ti), '_')
			buf = strconv.AppendInt(buf, int64(j), 10)
		}
	}
	buf = append(buf, '\n')
	for i := 0; i < rows; i++ {
		for ti := range laws {
			latent := rng.NormFloat64() * plantedNoise
			for _, lv := range plantedLevels {
				latent += float64(rng.Intn(lv.k)) * lv.sep
			}
			for j, law := range laws[ti] {
				if ti+j > 0 {
					buf = append(buf, ',')
				}
				v := latent*law.scale + law.shift + rng.NormFloat64()*plantedNoise*0.5
				buf = strconv.AppendFloat(buf, v, 'f', 4, 64)
			}
		}
		buf = append(buf, '\n')
		if len(buf) > 1<<16 {
			m, err := w.Write(buf)
			n += int64(m)
			if err != nil {
				return n, fmt.Errorf("writing %s: %w", path, err)
			}
			buf = buf[:0]
		}
	}
	m, err := w.Write(buf)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return n, fmt.Errorf("writing %s: %w", path, err)
	}
	return n, f.Close()
}
