package core

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/store"
)

// ScatterData is a bivariate view of a region: paired values of two
// numeric columns plus their correlation — the data behind the
// scatter-plots Blaeu's highlight panel offers (§2: "classic univariate
// and bivariate visualization methods, such as histograms and
// scatter-plots"). Points are capped at MaxPoints by uniform sampling.
type ScatterData struct {
	XColumn, YColumn string
	// X and Y are the paired non-null values.
	X, Y []float64
	// Pearson and Spearman are the correlations over the region.
	Pearson, Spearman float64
	// N is the number of region tuples with both values present
	// (before the MaxPoints cap).
	N int
}

// MaxScatterPoints bounds the points a scatter extraction returns.
const MaxScatterPoints = 2000

// RegionScatter extracts the bivariate data of two numeric columns inside
// the region at path of the current map.
func (e *Explorer) RegionScatter(xCol, yCol string, path ...int) (*ScatterData, error) {
	cur := e.State()
	if cur.Map == nil {
		return nil, fmt.Errorf("core: no active map")
	}
	cx := e.table.ColumnByName(xCol)
	cy := e.table.ColumnByName(yCol)
	if cx == nil || cy == nil {
		return nil, fmt.Errorf("core: unknown column %q or %q", xCol, yCol)
	}
	for _, c := range []store.Column{cx, cy} {
		if !c.Type().IsNumeric() && c.Type() != store.Bool {
			return nil, fmt.Errorf("core: column %q is not numeric", c.Name())
		}
	}
	region, err := cur.Map.Root.Find(path)
	if err != nil {
		return nil, err
	}
	sd := &ScatterData{XColumn: xCol, YColumn: yCol}
	// Both columns are read page run by page run, and the pairs with
	// both values present compacted in place.
	rows := region.RowIDs()
	xs, xok := store.RowFloats(cx, rows)
	ys, yok := store.RowFloats(cy, rows)
	n := 0
	for k := range xs {
		if xok[k]&yok[k] != 0 {
			xs[n], ys[n] = xs[k], ys[k]
			n++
		}
	}
	if xs, ys = xs[:n], ys[:n]; n == 0 {
		xs, ys = nil, nil // as the JSON of a region without pairs has always read
	}
	sd.N = n
	sd.Pearson = stats.Pearson(xs, ys)
	sd.Spearman = stats.Spearman(xs, ys)
	if len(xs) > MaxScatterPoints {
		// A private stream, seeded by the session seed and the region's
		// rows: an inspection never advances e.rng (the next build would
		// come out different), and a region shows the same points on
		// every call.
		rng := rand.New(rand.NewSource(e.opts.Seed ^ int64(rows.Fingerprint())))
		idx := store.SampleIndices(len(xs), MaxScatterPoints, rng)
		sd.X = make([]float64, len(idx))
		sd.Y = make([]float64, len(idx))
		for i, j := range idx {
			sd.X[i], sd.Y[i] = xs[j], ys[j]
		}
	} else {
		sd.X, sd.Y = xs, ys
	}
	return sd, nil
}

// Annotate attaches a free-text note to the region at path of the current
// map (the paper's abstract: maps provide "facilities to inspect their
// content and annotate them"). Annotations live on the map and survive
// rollback to the state holding that map.
func (e *Explorer) Annotate(text string, path ...int) error {
	cur := e.State()
	if cur.Map == nil {
		return fmt.Errorf("core: no active map to annotate")
	}
	region, err := cur.Map.Root.Find(path)
	if err != nil {
		return err
	}
	region.Annotations = append(region.Annotations, text)
	return nil
}

// Filter narrows the current selection with an explicit predicate and
// rebuilds the active map (when one exists) over the filtered rows; it
// returns a nil map when no theme has been selected yet. PrepareFilter
// is the asynchronous counterpart.
//
// This is an extension beyond the paper's four actions: Blaeu
// deliberately quantizes the query space to cluster boundaries, but the
// journal version's power users still need an escape hatch for exact
// thresholds. Filter is reversible like every other action.
func (e *Explorer) Filter(pred store.Predicate) (*Map, error) {
	b, err := e.PrepareFilter(pred)
	if err != nil {
		return nil, err
	}
	return e.runAndApply(b)
}

// FilterExpr parses a SQL-style predicate ("hours >= 20 AND name = 'CA'")
// and applies Filter.
func (e *Explorer) FilterExpr(expr string) (*Map, error) {
	pred, err := store.ParsePredicate(expr)
	if err != nil {
		return nil, err
	}
	return e.Filter(pred)
}
