package core

import (
	"fmt"
	"math"

	"repro/internal/store"
)

// Highlight summarizes one column inside one region — the inspection
// action of paper §2 (Fig. 1c shows country names highlighted inside a
// region). Highlights are read-only: they do not change the navigation
// state.
type Highlight struct {
	// Column is the inspected column.
	Column string
	// Region is the inspected region's condition.
	Region string
	// Stats summarizes the column over the region's tuples.
	Stats store.ColumnStats
	// SampleValues holds up to MaxSampleValues representative values
	// (most frequent for categoricals, first-seen for numerics).
	SampleValues []string
}

// MaxSampleValues bounds the values a highlight returns: the top values
// the region's statistics keep, for a categorical column.
const MaxSampleValues = store.MaxTopValues

// Highlight inspects the values of the named column inside the region at
// the given path of the current map. Any column of the table may be
// highlighted, not only the theme's — that is how Fig. 1c reveals country
// names on a labor-statistics map.
func (e *Explorer) Highlight(column string, path ...int) (*Highlight, error) {
	cur := e.State()
	if cur.Map == nil {
		return nil, fmt.Errorf("core: no active map to highlight (select a theme first)")
	}
	col := e.data.table.ColumnByName(column)
	if col == nil {
		return nil, fmt.Errorf("core: no column %q", column)
	}
	region, err := cur.Map.Root.Find(path)
	if err != nil {
		return nil, err
	}
	// The statistics are computed over the region's rows in place — no
	// copy of the column is made — once per map and column.
	st := region.Stats(col)
	h := &Highlight{Column: column, Region: region.Describe(), Stats: st}
	if len(st.TopValues) > 0 {
		for _, tv := range st.TopValues {
			h.SampleValues = append(h.SampleValues, tv.Value)
		}
		return h, nil
	}
	// The first values present, rendered: gathered a few rows at a time
	// until enough are seen.
	rows := region.RowIDs()
	want := min(MaxSampleValues, st.Count)
	for lo := 0; len(h.SampleValues) < want; lo += 4 * MaxSampleValues {
		pos := make([]int, 0, 4*MaxSampleValues)
		for p := lo; p < min(lo+4*MaxSampleValues, rows.Len()); p++ {
			pos = append(pos, p)
		}
		sub := col.Gather(rows.Pick(pos))
		for i := 0; i < sub.Len() && len(h.SampleValues) < want; i++ {
			if !sub.IsNull(i) {
				h.SampleValues = append(h.SampleValues, sub.StringAt(i))
			}
		}
	}
	return h, nil
}

// HistogramData is a binned view of a numeric column over a region, for
// the univariate charts Blaeu's highlight panel shows (§2: "classic
// univariate and bivariate visualization methods").
type HistogramData struct {
	Column string
	// Edges are the bin boundaries (len = len(Counts)+1).
	Edges []float64
	// Counts are the tuples per bin.
	Counts []int
}

// RegionHistogram bins the named numeric column over the region at path.
func (e *Explorer) RegionHistogram(column string, bins int, path ...int) (*HistogramData, error) {
	cur := e.State()
	if cur.Map == nil {
		return nil, fmt.Errorf("core: no active map")
	}
	col := e.data.table.ColumnByName(column)
	if col == nil {
		return nil, fmt.Errorf("core: no column %q", column)
	}
	if !col.Type().IsNumeric() && col.Type() != store.Bool {
		return nil, fmt.Errorf("core: column %q is not numeric", column)
	}
	if bins <= 0 {
		bins = 10
	}
	region, err := cur.Map.Root.Find(path)
	if err != nil {
		return nil, err
	}
	// The values present and not NaN, compacted in place.
	vals, present := store.RowFloats(col, region.RowIDs())
	n := 0
	for k, v := range vals {
		if present[k] != 0 && !math.IsNaN(v) {
			vals[n] = v
			n++
		}
	}
	if vals = vals[:n]; n == 0 {
		return &HistogramData{Column: column, Edges: []float64{0, 0}, Counts: make([]int, 1)}, nil
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		return &HistogramData{Column: column, Edges: []float64{min, max}, Counts: []int{len(vals)}}, nil
	}
	edges := make([]float64, bins+1)
	width := (max - min) / float64(bins)
	for i := range edges {
		edges[i] = min + float64(i)*width
	}
	counts := make([]int, bins)
	for _, v := range vals {
		b := int((v - min) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return &HistogramData{Column: column, Edges: edges, Counts: counts}, nil
}
