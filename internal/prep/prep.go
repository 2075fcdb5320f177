// Package prep implements the preprocessing stage of Blaeu's mapping
// pipeline (paper Fig. 3 and §3): it removes primary keys, normalizes
// continuous variables, represents categorical data with dummy binary
// variables (one per category), and handles missing values. The result of
// fitting and applying a pipeline is "a set of vectors, where each vector
// represents a tuple in the database".
//
// The stage has one form and no settings: probable keys are dropped,
// numeric columns are z-scored with nulls imputed by the column mean,
// booleans pass through (a null sits at 0.5), and a categorical column
// becomes one 0/1 dummy per level for its 20 most frequent levels, or is
// dropped when it is constant or identifier-like.
//
// Non-finite values stop here: prep treats ±Inf in a numeric column as
// missing, like a null. The scaler is fitted on the column's finite
// values and an infinite cell is imputed with their mean, so no infinite
// cell makes a prepared value, or a distance, infinite or NaN. The
// alternative, a z-score over the infinite value, makes the column's
// center infinite: every other cell then prepares to −Inf and the
// infinite one to NaN, and the distance between two −Inf cells is NaN.
// The raw value stays in the table, where the description tree and the
// queries see it.
package prep

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/store"
)

const (
	// maxDummyLevels caps the number of dummy variables per categorical
	// column; less frequent levels share no dummy (all-zero row).
	maxDummyLevels = 20
	// maxCardinalityRatio drops categorical columns whose distinct-value
	// ratio exceeds this bound (free-text / identifier columns carry no
	// cluster structure).
	maxCardinalityRatio = 0.5
)

// Options is empty: the pipeline has no settings. It and NewOptions exist
// only so that FitTransform's existing callers compile; removed with
// ROADMAP 8(f).
type Options struct{}

// NewOptions returns the empty Options; removed with ROADMAP 8(f).
func NewOptions() Options { return Options{} }

// featureKind tags how one input column maps to output dimensions.
type featureKind int

const (
	kindNumeric featureKind = iota
	kindBool
	kindDummy
)

type feature struct {
	col    string
	kind   featureKind
	scaler stats.Scaler
	fill   float64  // imputation value for numeric: the column mean
	levels []string // dummy levels for categorical
}

// Pipeline is a fitted preprocessing transform. Fit on one selection, it
// can vectorize the same or compatible tables (same column names/types).
type Pipeline struct {
	features []feature
	names    []string // output dimension names (dummies are "column=level")
	dropped  []string // columns removed (keys, high-cardinality, constant)
}

// Fit learns a preprocessing pipeline on the given columns of t (all
// columns when cols is nil).
func Fit(t *store.Table, cols []string) (*Pipeline, error) {
	p := new(Pipeline)
	if err := p.Refit(t, cols); err != nil {
		return nil, err
	}
	return p, nil
}

// Refit is Fit into p: what p learned before is forgotten, and its
// feature, name and dropped lists are refilled on their own storage, so
// a pipeline refitted on samples of one theme allocates nothing for
// them once it has seen the widest. A failed refit leaves p unusable
// until the next succeeds.
func (p *Pipeline) Refit(t *store.Table, cols []string) error {
	if cols == nil {
		cols = t.ColumnNames()
	}
	p.features, p.names, p.dropped = p.features[:0], p.names[:0], p.dropped[:0]
	for _, name := range cols {
		c := t.ColumnByName(name)
		if c == nil {
			return fmt.Errorf("prep: no column %q", name)
		}
		if store.IsLikelyKey(c) {
			p.dropped = append(p.dropped, name)
			continue
		}
		switch c.Type() {
		case store.Float64, store.Int64:
			sc := stats.FitScaler(c)
			// The fill is the mean of the column's finite values, 0 when
			// it has none: the scaler's center.
			p.features = append(p.features, feature{col: name, kind: kindNumeric, scaler: sc, fill: sc.Center})
			p.names = append(p.names, name)
		case store.Bool:
			p.features = append(p.features, feature{col: name, kind: kindBool})
			p.names = append(p.names, name)
		case store.String:
			sc := c.(*store.StringColumn)
			nonNull := c.Len() - c.NullCount()
			if nonNull > 0 && float64(sc.Cardinality())/float64(nonNull) > maxCardinalityRatio && sc.Cardinality() > maxDummyLevels {
				p.dropped = append(p.dropped, name)
				continue
			}
			levels := topLevels(sc, maxDummyLevels)
			if len(levels) < 2 {
				p.dropped = append(p.dropped, name) // constant: no signal
				continue
			}
			p.features = append(p.features, feature{col: name, kind: kindDummy, levels: levels})
			for _, lv := range levels {
				p.names = append(p.names, name+"="+lv)
			}
		}
	}
	if len(p.features) == 0 {
		return fmt.Errorf("prep: no usable columns after preprocessing (dropped %v)", p.dropped)
	}
	return nil
}

func topLevels(c *store.StringColumn, max int) []string {
	freq := make(map[string]int)
	for i := 0; i < c.Len(); i++ {
		if !c.IsNull(i) {
			freq[c.Value(i)]++
		}
	}
	levels := make([]string, 0, len(freq))
	for v := range freq {
		levels = append(levels, v)
	}
	sort.Slice(levels, func(i, j int) bool {
		if freq[levels[i]] != freq[levels[j]] {
			return freq[levels[i]] > freq[levels[j]]
		}
		return levels[i] < levels[j]
	})
	if len(levels) > max {
		levels = levels[:max]
	}
	sort.Strings(levels)
	return levels
}

// Dim returns the output vector dimensionality.
func (p *Pipeline) Dim() int { return len(p.names) }

// Dropped returns the input columns the pipeline removed and why they
// carry no cluster signal (keys, constants, identifier-like text).
func (p *Pipeline) Dropped() []string { return p.dropped }

// UsedColumns returns the input columns that contribute dimensions.
func (p *Pipeline) UsedColumns() []string {
	out := make([]string, len(p.features))
	for i, f := range p.features {
		out[i] = f.col
	}
	return out
}

// Transform vectorizes every row of t into the given storage: vecs's
// headers and one float slab, each reallocated only when too short. Row
// r's vector is a window of the slab, capped at Dim, so an append to
// one never writes into the next. It returns the vectors and the slab,
// to be passed back in by the next call once those vectors are dead;
// nil storage allocates both. The table must contain the fitted
// columns.
func (p *Pipeline) Transform(t *store.Table, vecs [][]float64, slab []float64) ([][]float64, []float64, error) {
	n, dim := t.NumRows(), p.Dim()
	cols := make([]store.Column, len(p.features))
	for i, f := range p.features {
		c := t.ColumnByName(f.col)
		if c == nil {
			return vecs, slab, fmt.Errorf("prep: transform table lacks column %q", f.col)
		}
		cols[i] = c
	}
	if cap(vecs) < n {
		vecs = make([][]float64, n)
	}
	vecs = vecs[:n]
	if cap(slab) < n*dim {
		slab = make([]float64, n*dim)
	}
	slab = slab[:n*dim]
	for r := 0; r < n; r++ {
		v := slab[r*dim : r*dim : (r+1)*dim]
		for fi, f := range p.features {
			c := cols[fi]
			switch f.kind {
			case kindNumeric:
				x := c.Float(r)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					// Impute a null or an infinite value (see the package
					// comment) on the original scale, then normalize, so
					// the fill lands where the column mean lands.
					x = f.fill
				}
				v = append(v, f.scaler.Apply(x))
			case kindBool:
				x := c.Float(r)
				if math.IsNaN(x) {
					x = 0.5 // unknown boolean sits between the classes
				}
				v = append(v, x)
			case kindDummy:
				val := ""
				null := c.IsNull(r)
				if !null {
					val = c.StringAt(r)
				}
				for _, lv := range f.levels {
					if !null && val == lv {
						v = append(v, 1)
					} else {
						v = append(v, 0)
					}
				}
			}
		}
		vecs[r] = v
	}
	return vecs, slab, nil
}

// FitTransform fits a pipeline and vectorizes in one call. Its Options
// argument is ignored; removed with ROADMAP 8(f).
func FitTransform(t *store.Table, cols []string, _ Options) (*Pipeline, [][]float64, error) {
	p, err := Fit(t, cols)
	if err != nil {
		return nil, nil, err
	}
	vecs, _, err := p.Transform(t, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return p, vecs, nil
}
