package core

import (
	"math/rand"

	"repro/internal/prep"
	"repro/internal/store"
)

// DefaultArtifactCacheSize is the default capacity (entries) of the
// build-artifact cache — the reuse tier below the map cache. An artifact
// pins the sample's rows and fitted vectors (about 0.3 MB for 1 100
// tuples in 33 prepared dimensions) and no distances: every build
// computes its own oracle.
const DefaultArtifactCacheSize = 4

// Derivation policy defaults (see Options.DerivedSampleMin /
// Options.DerivedSampleFraction).
const (
	defaultDerivedSampleMin      = 128
	defaultDerivedSampleFraction = 0.2
)

// buildArtifact is the cacheable product of the front half of the
// mapping pipeline: the sampled rows and the fitted preprocessing
// pipeline with the sample's vectors. It holds no distances — the
// oracle over the vectors is build scratch (see oracleStage), so a
// cached artifact never pins a matrix. Artifacts are immutable once
// built, so one cached artifact can back several concurrent builds.
type buildArtifact struct {
	theme      int
	sampleRows []int // absolute base-table rows actually clustered, ascending
	pipe       *prep.Pipeline
	vecs       [][]float64
}

// artifactKey identifies the selection an artifact was built from: row
// fingerprint + count (same canonical hashing as the map tier), theme,
// and the sample/prep-relevant configuration. The config dimension is
// constant within one Explorer (options are immutable after open) but
// keeps keys self-describing.
type artifactKey struct {
	rows   uint64
	n      int
	theme  int
	config uint64
}

// artifactCache is a small LRU of build artifacts, owned by one Explorer
// and accessed only under the lock that guards the Explorer (the session
// mutex at the server tier). It answers two kinds of lookups: exact
// (same selection → reuse the whole artifact, skipping the sample and
// prep stages) and derivable (the new selection overlaps a cached
// parent's sample enough that the child's sample and vectors can be
// re-sliced out of the parent's instead of drawn and fitted).
type artifactCache struct {
	lru *lruCache[artifactKey, *buildArtifact]

	hits, derived, misses int
}

func newArtifactCache(capacity int) *artifactCache {
	return &artifactCache{lru: newLRU[artifactKey, *buildArtifact](capacity)}
}

// get returns the artifact built from exactly this selection, or nil.
// Counters are the caller's job (prepare resolves hit/derived/miss as
// one decision).
func (c *artifactCache) get(k artifactKey) *buildArtifact {
	art, _ := c.lru.get(k)
	return art
}

// findDerivable scans the cache for the parent artifact whose sample
// overlaps rows the most, returning it with the overlapping positions
// (indices into the parent's sampleRows/vecs, ascending) when the
// overlap reaches minNeeded — the derivation policy's floor. The
// overlap is RowSet.Intersect of the sample: one membership test per
// sample row, O(sample · log rows) at most per cached entry however
// large the selection.
func (c *artifactCache) findDerivable(theme int, cfg uint64, rows *store.RowSet, minNeeded int) (*buildArtifact, []int) {
	var bestKey artifactKey
	var bestArt *buildArtifact
	var bestPos []int
	c.each(func(k artifactKey, art *buildArtifact) bool {
		if k.theme != theme || k.config != cfg {
			return true
		}
		if len(art.sampleRows) <= len(bestPos) {
			return true // cannot beat the current best
		}
		pos := rows.Intersect(art.sampleRows)
		if len(pos) >= minNeeded && len(pos) > len(bestPos) {
			bestKey, bestArt, bestPos = k, art, pos
		}
		return true
	})
	if bestArt == nil {
		return nil, nil
	}
	c.lru.get(bestKey) // bump the chosen parent to most recently used
	return bestArt, bestPos
}

// each walks the cached artifacts from most to least recently used.
func (c *artifactCache) each(f func(k artifactKey, art *buildArtifact) bool) {
	c.lru.each(f)
}

// put stores a finished artifact, evicting least recently used entries
// beyond capacity.
func (c *artifactCache) put(k artifactKey, art *buildArtifact) { c.lru.put(k, art) }

// derivedSampleFloor is the derivation policy: the smallest overlap
// (between a new selection and a cached parent's sample) that still
// makes a statistically acceptable clustering sample for the child. A
// fresh build would cluster min(len(rows), SampleSize) tuples; the
// derived build accepts a DerivedSampleFraction of that, but never
// fewer than DerivedSampleMin rows. Because the parent's sample was
// drawn uniformly from a superset of the child's rows, the overlap IS a
// uniform sample of the child's selection — smaller, not biased.
func (e *Explorer) derivedSampleFloor(rows *store.RowSet) int {
	target := rows.Len()
	if target > e.opts.SampleSize {
		target = e.opts.SampleSize
	}
	min := e.opts.DerivedSampleMin
	if frac := int(e.opts.DerivedSampleFraction * float64(target)); frac > min {
		min = frac
	}
	return min
}

// deriveArtifact builds the child artifact from a cached parent: the
// overlapping rows become the child's sample (subsampled with the
// build's RNG when the overlap exceeds the sampling budget) and the
// parent's vectors are re-sliced — shared slice headers, no copy. The
// build then computes its own oracle over them. pos holds ascending
// indices into the parent's sample (from findDerivable). Runs off the
// session lock (see MapBuild.Run).
func (e *Explorer) deriveArtifact(parent *buildArtifact, pos []int, rng *rand.Rand) *buildArtifact {
	if len(pos) > e.opts.SampleSize {
		pick := store.SampleIndices(len(pos), e.opts.SampleSize, rng)
		sub := make([]int, len(pick))
		for i, p := range pick {
			sub[i] = pos[p]
		}
		pos = sub
	}
	art := &buildArtifact{
		theme:      parent.theme,
		sampleRows: make([]int, len(pos)),
		pipe:       parent.pipe,
		vecs:       make([][]float64, len(pos)),
	}
	for i, p := range pos {
		art.sampleRows[i] = parent.sampleRows[p]
		art.vecs[i] = parent.vecs[p]
	}
	return art
}

// constantVectors reports whether every vector is identical — a derived
// sample with no structure the parent's preprocessing can express. A
// cold build of such a selection refits the pipeline, finds only
// constant columns and degrades to a single-region map; derived builds
// must take the same road instead of clustering zero-distance data.
// Non-degenerate data exits at the first differing float, so the common
// case is near-free.
func constantVectors(vecs [][]float64) bool {
	for i := 1; i < len(vecs); i++ {
		for j, v := range vecs[i] {
			if v != vecs[0][j] {
				return false
			}
		}
	}
	return true
}

// constantAt is constantVectors over vecs restricted to pos, so the
// degenerate-overlap check can run at prepare time, before any
// derivation work.
func constantAt(vecs [][]float64, pos []int) bool {
	if len(pos) == 0 {
		return true
	}
	first := vecs[pos[0]]
	for _, p := range pos[1:] {
		for j, v := range vecs[p] {
			if v != first[j] {
				return false
			}
		}
	}
	return true
}

// TierStats describes one tier of the reuse cache (counters are
// lifetime totals for the owning Explorer).
type TierStats struct {
	// Hits counts exact reuses: a finished map served as-is (map tier)
	// or a whole artifact reused without a rebuild (artifact tier).
	Hits int `json:"hits"`
	// Derived counts partial reuses — builds whose sample and vectors
	// were derived from a cached parent artifact. Always 0 on the map
	// tier.
	Derived int `json:"derived,omitempty"`
	Misses  int `json:"misses"`
	// Entries and Capacity describe current occupancy; Evictions counts
	// LRU evictions over the cache's lifetime.
	Entries   int `json:"entries"`
	Capacity  int `json:"capacity"`
	Evictions int `json:"evictions"`
}

// ReuseStats is the two-tier cache breakdown: the map tier (finished
// region trees, keyed by selection + theme + config) above the artifact
// tier (sample rows and fitted vectors, reused exactly or by
// derivation). See Explorer.ReuseStats.
type ReuseStats struct {
	Map      TierStats `json:"map"`
	Artifact TierStats `json:"artifact"`
}
