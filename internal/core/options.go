// Package core implements Blaeu's mapping engine and navigation model —
// the paper's primary contribution. It clusters a table vertically into
// themes (groups of mutually dependent columns), builds a data map per
// theme (hierarchical, interpretable clusters of the current selection),
// and exposes the four navigational actions: zoom, highlight, project and
// rollback (paper §2–3).
//
// Map construction runs on one distance contract, cluster.Oracle, and
// the engine chooses its storage at the one crossover, PAMThreshold
// (see internal/cluster): a materialized distance matrix where the
// build runs exact PAM, a lazy on-demand oracle where it runs CLARA,
// whose samples, Monte-Carlo rounds and per-cluster silhouettes are
// drawn once per build, so its distance work grows linearly in the
// sample. Both storages answer with the same bits, so the choice never
// changes a map. Every build that clusters draws its
// own sample, as the paper's zoom does ("After each zoom, Blaeu only
// takes a few thousand samples", §3), and its sample, vectors and oracle
// live for that build alone, in build scratch off the dataset's free
// list, which every session on the dataset shares. A session's reuse
// cache keeps finished maps only.
package core

import (
	"math/rand"

	"repro/internal/cluster"
)

// Options tunes the exploration engine. They belong to a Dataset
// (NewDataset applies the defaults once): every session opened on it
// runs with them.
type Options struct {
	// Seed initializes the engine's deterministic randomness.
	Seed int64
	// SampleSize is the multi-scale sampling budget: after each action
	// Blaeu clusters at most this many tuples (paper §3: "After each
	// zoom, Blaeu only takes a few thousand samples"). Default 5000: a
	// sample above PAMThreshold is clustered through CLARA over a lazy
	// oracle, with work linear in the sample (TestBuildWorkIsLinear), and
	// a cold select at 5000 on LOFAR's widest theme takes ~0.1 s on two
	// cores (BenchmarkColdSelectDefault).
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
	// PAMThreshold is the sample size above which clustering switches
	// from exact PAM to CLARA, silhouettes switch to the Monte-Carlo
	// estimator and the oracle goes lazy (paper §3: "when the data is
	// too large, Blaeu creates the maps with CLARA"). Default
	// cluster.DefaultPAMThreshold (1024).
	PAMThreshold int
	// Parallelism is ignored; removed with ROADMAP 8(f).
	Parallelism int
	// MapCacheSize bounds the session's reuse cache: finished maps are
	// keyed by (row-set fingerprint, row count, theme) and reused when
	// navigation revisits a selection, e.g. rollback followed by a
	// re-zoom into the same region. The options are not in the key: they
	// are the dataset's, fixed before any session opens. An entry holds
	// only its map; every miss builds cold, drawing and fitting its own
	// sample. 0 means DefaultMapCacheSize; negative disables the cache.
	MapCacheSize int
}

// historyLimit bounds the rollback stack. It counts the initial state,
// which trimming never drops.
const historyLimit = 64

// DefaultOptions returns the engine defaults described in the paper.
func DefaultOptions() Options {
	return Options{
		SampleSize:   5000,
		MapKMin:      2,
		MapKMax:      6,
		TreeMaxDepth: 3,
		TreeMinLeaf:  8,
		PAMThreshold: cluster.DefaultPAMThreshold,
		MapCacheSize: DefaultMapCacheSize,
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
	if o.PAMThreshold <= 0 {
		o.PAMThreshold = d.PAMThreshold
	}
	if o.MapCacheSize == 0 {
		o.MapCacheSize = d.MapCacheSize
	}
}

// newRNG builds the engine RNG from the seed.
func (o *Options) newRNG() *rand.Rand { return rand.New(rand.NewSource(o.Seed + 1)) }
