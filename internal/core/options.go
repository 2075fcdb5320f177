// Package core implements Blaeu's mapping engine and navigation model —
// the paper's primary contribution. It clusters a table vertically into
// themes (groups of mutually dependent columns), builds a data map per
// theme (hierarchical, interpretable clusters of the current selection),
// and exposes the four navigational actions: zoom, highlight, project and
// rollback (paper §2–3).
//
// Map construction runs on one distance contract, cluster.Oracle, and
// the engine chooses its storage by sample size alone (see
// internal/cluster): a materialized distance matrix up to
// cluster.DefaultMaterializeThreshold objects, a lazy on-demand oracle
// above it, which is what lets the sampling budget default to 5000
// tuples without quadratic memory. Both answer with the same bits, so
// the choice never changes a map. The oracle lives for one build: a
// zoom inside an already-clustered selection re-slices the cached
// sample's vectors instead of drawing and fitting a new sample, then
// computes its own distances over them, and a session's builds compute
// their matrices on one recycled buffer.
package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"

	"repro/internal/prep"
)

// Options tunes the exploration engine.
type Options struct {
	// Seed initializes the engine's deterministic randomness.
	Seed int64
	// SampleSize is the multi-scale sampling budget: after each action
	// Blaeu clusters at most this many tuples (paper §3: "After each
	// zoom, Blaeu only takes a few thousand samples"). Default 5000 —
	// raised from the paper-era 2000 because a sample above
	// cluster.DefaultMaterializeThreshold objects is clustered over a
	// lazy oracle, never the O(n²) distance matrix.
	SampleSize int
	// MapKMin / MapKMax bound the number of clusters per data map
	// (defaults 2 and 6).
	MapKMin, MapKMax int
	// TreeMaxDepth bounds the description tree, hence the depth of the
	// region hierarchy in a map (default 3 — maps must stay readable).
	TreeMaxDepth int
	// TreeMinLeaf is the minimum tuples per region on the clustered
	// sample (default 8).
	TreeMinLeaf int
	// DependencySampleRows caps rows used for the dependency graph
	// (default = SampleSize; themes only need statistical estimates).
	DependencySampleRows int
	// Prep configures preprocessing (default prep.NewOptions()).
	Prep prep.Options
	// PAMThreshold is the sample size above which clustering switches
	// from exact PAM to CLARA, and silhouettes switch to the
	// Monte-Carlo estimator (paper §3: "when the data is too large,
	// Blaeu creates the maps with CLARA"). Default 1024.
	PAMThreshold int
	// Parallelism is ignored; removed with ROADMAP 8(f).
	Parallelism int
	// MapCacheSize bounds the session's reuse cache: finished maps are
	// keyed by (row-set fingerprint, theme, clustering config) and
	// reused when navigation revisits a selection, e.g. rollback
	// followed by a re-zoom into the same region. A cold build's entry
	// also keeps its sample rows and fitted vectors, so a miss whose
	// rows overlap that sample re-slices the parent's vectors instead of
	// sampling and fitting anew. 0 means DefaultMapCacheSize; negative
	// disables the cache, derivation included.
	MapCacheSize int
	// DerivedSampleMin is the smallest overlap (rows of a new selection
	// found in a cached parent's sample) a derived build accepts as its
	// clustering sample; below it, or below a fifth of what a cold build
	// would cluster (min(len(rows), SampleSize)), the build runs cold.
	// 0 means the default (128); negative disables derivation.
	DerivedSampleMin int
	// MaxHistory bounds the rollback stack (default 64). It counts the
	// initial state, and at least 2 are kept: the initial state and the
	// current one.
	MaxHistory int
}

// optionInKey classifies every field of Options as in the cache key
// (true: the field changes which map a build produces for a given rows
// and theme) or not; optionsFingerprint hashes exactly the fields marked
// true, so the key cannot drift from this table, and
// TestEveryOptionIsClassified fails for a field that is missing from it
// or whose change does not move the fingerprint as marked. A field is
// left out (false) when it changes how fast a map is built, not which
// map (results are byte-identical at every setting), or when it never
// reaches buildMap at all.
var optionInKey = map[string]bool{
	// Which sample is drawn and how it becomes vectors, then model
	// selection and description over them.
	"SampleSize":   true,
	"Prep":         true,
	"MapKMin":      true,
	"MapKMax":      true,
	"TreeMaxDepth": true,
	"TreeMinLeaf":  true,
	"PAMThreshold": true,
	// The engine's random stream: fixed when the Explorer opens, and a
	// cache never outlives its Explorer.
	"Seed": false,
	// Theme detection: a different partition gives different theme IDs,
	// which the key carries itself.
	"DependencySampleRows": false,
	// Ignored.
	"Parallelism": false,
	// The cache's own size and reuse policy, and the rollback stack.
	"MapCacheSize":     false,
	"DerivedSampleMin": false,
	"MaxHistory":       false,
}

// optionsFingerprint hashes, in declaration order, the fields of o that
// optionInKey marks as in the cache key.
func optionsFingerprint(o Options) uint64 {
	h := fnv.New64a()
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if optionInKey[v.Type().Field(i).Name] {
			fmt.Fprintf(h, "%v|", v.Field(i).Interface())
		}
	}
	return h.Sum64()
}

// DefaultOptions returns the engine defaults described in the paper.
func DefaultOptions() Options {
	return Options{
		SampleSize:       5000,
		MapKMin:          2,
		MapKMax:          6,
		TreeMaxDepth:     3,
		TreeMinLeaf:      8,
		Prep:             prep.NewOptions(),
		PAMThreshold:     1024,
		MapCacheSize:     DefaultMapCacheSize,
		DerivedSampleMin: defaultDerivedSampleMin,
		MaxHistory:       64,
	}
}

func (o *Options) defaults() {
	d := DefaultOptions()
	if o.SampleSize <= 0 {
		o.SampleSize = d.SampleSize
	}
	if o.MapKMin < 2 {
		o.MapKMin = d.MapKMin
	}
	if o.MapKMax < o.MapKMin {
		o.MapKMax = o.MapKMin + 4
	}
	if o.TreeMaxDepth <= 0 {
		o.TreeMaxDepth = d.TreeMaxDepth
	}
	if o.TreeMinLeaf <= 0 {
		o.TreeMinLeaf = d.TreeMinLeaf
	}
	if o.DependencySampleRows <= 0 {
		o.DependencySampleRows = o.SampleSize
	}
	if o.Prep.MaxDummyLevels == 0 && o.Prep.MaxCardinalityRatio == 0 {
		o.Prep = d.Prep
	}
	if o.PAMThreshold <= 0 {
		o.PAMThreshold = d.PAMThreshold
	}
	if o.MapCacheSize == 0 {
		o.MapCacheSize = d.MapCacheSize
	}
	if o.DerivedSampleMin == 0 {
		o.DerivedSampleMin = d.DerivedSampleMin
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = d.MaxHistory
	}
	o.MaxHistory = max(o.MaxHistory, 2)
}

// newRNG builds the engine RNG from the seed.
func (o *Options) newRNG() *rand.Rand { return rand.New(rand.NewSource(o.Seed + 1)) }
