package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Seeding selects how the k-medoid algorithms pick their initial medoids.
// BUILD is the textbook greedy seeding — high quality but O(n²·k), which
// became the dominant cost of a FasterPAM run once SWAP dropped to O(n²)
// per pass. The alternatives cut seeding to O(n·k) at a small,
// SWAP-recoverable quality cost.
type Seeding int

const (
	// SeedingAuto (the default) uses BUILD below seedingAutoThreshold
	// objects and k-means++ above it when a random source is available
	// (falling back to BUILD without one, so deterministic callers keep
	// deterministic seeds).
	SeedingAuto Seeding = iota
	// SeedingBUILD is the quadratic greedy BUILD of Kaufman & Rousseeuw.
	SeedingBUILD
	// SeedingKMeansPP seeds by D² sampling on the oracle: each next
	// medoid is drawn with probability proportional to the squared
	// distance to the nearest already-chosen one (Arthur & Vassilvitskii
	// 2007, transplanted to medoids).
	SeedingKMeansPP
	// SeedingLAB is a LAB-style subsample BUILD (Schubert & Rousseeuw
	// 2021, "linear approximative BUILD"): each greedy BUILD step is
	// evaluated on a fresh random subsample of 10+⌈√n⌉ objects.
	SeedingLAB
)

// seedingAutoThreshold is the object count above which SeedingAuto
// abandons quadratic BUILD. It sits above the default CLARA switchover
// (2000), so auto seeding only changes behavior for explicit large
// direct-PAM runs.
const seedingAutoThreshold = 2048

// String names the seeding (the wire format of the server API).
func (s Seeding) String() string {
	switch s {
	case SeedingBUILD:
		return "build"
	case SeedingKMeansPP:
		return "kmeans++"
	case SeedingLAB:
		return "lab"
	default:
		return "auto"
	}
}

// ParseSeeding parses the wire name of a seeding scheme; the empty string
// means SeedingAuto.
func ParseSeeding(s string) (Seeding, error) {
	switch s {
	case "", "auto":
		return SeedingAuto, nil
	case "build":
		return SeedingBUILD, nil
	case "kmeans++", "kmeanspp":
		return SeedingKMeansPP, nil
	case "lab":
		return SeedingLAB, nil
	}
	return SeedingAuto, fmt.Errorf("cluster: unknown seeding %q (want auto, build, kmeans++ or lab)", s)
}

// SeedMedoids picks k initial medoids from the oracle under the given
// seeding scheme. rng is required by the randomized schemes (k-means++
// and LAB) and ignored by BUILD.
func SeedMedoids(o Oracle, k int, s Seeding, rng *rand.Rand) ([]int, error) {
	return seedMedoids(o, k, s, rng, newRowScratch(o.N()))
}

// resolve names the scheme s stands for over n objects: itself, or what
// SeedingAuto picks.
func (s Seeding) resolve(n int, rng *rand.Rand) Seeding {
	switch {
	case s == SeedingBUILD || s == SeedingKMeansPP || s == SeedingLAB:
		return s
	case rng != nil && n > seedingAutoThreshold:
		return SeedingKMeansPP
	}
	return SeedingBUILD
}

// seedMedoids is SeedMedoids over the calling run's row scratch.
func seedMedoids(o Oracle, k int, s Seeding, rng *rand.Rand, rows [][]float64) ([]int, error) {
	s = s.resolve(o.N(), rng)
	if s == SeedingBUILD {
		return pamBuild(o, k, rows), nil
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: %s seeding requires a random source", s)
	}
	if s == SeedingLAB {
		return labSeeds(o, k, rng, rows[0]), nil
	}
	return kmeansPPSeeds(o, k, rng, rows[0]), nil
}

// updateNearest lowers nearest[j] to Dist(m, j) wherever medoid m's row
// improves it. row is an n-sized buffer m's row is materialized into.
//
//blaeu:hot
func updateNearest(o Oracle, nearest, row []float64, m int) {
	o.RowInto(m, row)
	for j, d := range row {
		if d < nearest[j] {
			nearest[j] = d
		}
	}
}

// kmeansPPSeeds is D² sampling on the oracle: O(n) distance evaluations
// per medoid instead of BUILD's O(n²).
func kmeansPPSeeds(o Oracle, k int, rng *rand.Rand, row []float64) []int {
	n := o.N()
	medoids := make([]int, 0, k)
	chosen := make([]bool, n)
	nearest := make([]float64, n)
	for j := range nearest {
		nearest[j] = math.Inf(1)
	}

	first := rng.Intn(n)
	medoids = append(medoids, first)
	chosen[first] = true
	updateNearest(o, nearest, row, first)

	for len(medoids) < k {
		total := 0.0
		for j, d := range nearest {
			if !chosen[j] {
				total += d * d
			}
		}
		next := -1
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for j, d := range nearest {
				if chosen[j] {
					continue
				}
				acc += d * d
				if acc >= r {
					next = j
					break
				}
			}
		}
		if next < 0 {
			// All remaining objects coincide with a medoid (total == 0) or
			// float round-off exhausted the walk: take the first unchosen.
			for j := range chosen {
				if !chosen[j] {
					next = j
					break
				}
			}
		}
		medoids = append(medoids, next)
		chosen[next] = true
		updateNearest(o, nearest, row, next)
	}
	return medoids
}

// labSeeds runs each greedy BUILD step on a fresh random subsample of
// 10+⌈√n⌉ candidates, scoring gains over that same subsample — O(k·n)
// overall instead of BUILD's O(k·n²) — then maintains exact nearest
// distances over the full set so later steps see true gains.
func labSeeds(o Oracle, k int, rng *rand.Rand, row []float64) []int {
	n := o.N()
	size := 10 + int(math.Ceil(math.Sqrt(float64(n))))
	if size > n {
		size = n
	}
	medoids := make([]int, 0, k)
	chosen := make([]bool, n)
	nearest := make([]float64, n)
	for j := range nearest {
		nearest[j] = math.Inf(1)
	}

	for len(medoids) < k {
		sub := sampleUnchosen(n, size, chosen, rng)
		best, bestScore := -1, math.Inf(1)
		for _, c := range sub {
			score := 0.0
			if len(medoids) == 0 {
				// First medoid: most central object of the subsample.
				for _, x := range sub {
					score += o.Dist(c, x)
				}
			} else {
				// Later medoids: negated gain over the subsample.
				for _, x := range sub {
					if d := o.Dist(c, x); d < nearest[x] {
						score -= nearest[x] - d
					}
				}
			}
			if score < bestScore {
				best, bestScore = c, score
			}
		}
		medoids = append(medoids, best)
		chosen[best] = true
		updateNearest(o, nearest, row, best)
	}
	return medoids
}

// sampleUnchosen draws up to size distinct non-medoid indices.
func sampleUnchosen(n, size int, chosen []bool, rng *rand.Rand) []int {
	out := make([]int, 0, size)
	seen := make(map[int]bool, size)
	// Rejection sampling: medoids are a vanishing fraction of n, so a few
	// extra draws suffice; the attempt cap keeps degenerate inputs safe.
	for attempts := 0; len(out) < size && attempts < 8*size+64; attempts++ {
		j := rng.Intn(n)
		if chosen[j] || seen[j] {
			continue
		}
		seen[j] = true
		out = append(out, j)
	}
	if len(out) == 0 {
		for j := 0; j < n; j++ {
			if !chosen[j] {
				out = append(out, j)
				break
			}
		}
	}
	return out
}
