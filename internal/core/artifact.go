package core

import (
	"math/rand"

	"repro/internal/prep"
	"repro/internal/store"
)

// The derivation policy (see derivedSampleFloor): the default of
// Options.DerivedSampleMin, and the share of a cold build's sample an
// overlap must also reach.
const (
	defaultDerivedSampleMin = 128
	derivedSampleFraction   = 0.2
)

// buildArtifact is the cacheable product of the front half of the
// mapping pipeline: the sampled rows and the fitted preprocessing
// pipeline with the sample's vectors. It holds no distances — the
// oracle over the vectors is build scratch (see oracleStage), so a
// cached artifact never pins a matrix. A cold build's artifact is kept
// in its map-cache entry; artifacts are immutable once built, so one
// cached artifact can back several concurrent builds.
type buildArtifact struct {
	sampleRows []int // absolute base-table rows actually clustered, ascending
	pipe       *prep.Pipeline
	vecs       [][]float64
}

// derivedSampleFloor is the derivation policy: the smallest overlap
// (between a new selection and a cached parent's sample) that still
// makes a statistically acceptable clustering sample for the child. A
// fresh build would cluster min(len(rows), SampleSize) tuples; the
// derived build accepts derivedSampleFraction of that, but never fewer
// than DerivedSampleMin rows. Because the parent's sample was drawn
// uniformly from a superset of the child's rows, the overlap IS a
// uniform sample of the child's selection — smaller, not biased.
func (e *Explorer) derivedSampleFloor(rows *store.RowSet) int {
	target := rows.Len()
	if target > e.opts.SampleSize {
		target = e.opts.SampleSize
	}
	min := e.opts.DerivedSampleMin
	if frac := int(derivedSampleFraction * float64(target)); frac > min {
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
