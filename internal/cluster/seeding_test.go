package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/stats"
)

// TestSeedingParseRoundTrip pins the wire names of the seeding schemes.
func TestSeedingParseRoundTrip(t *testing.T) {
	for _, s := range []Seeding{SeedingAuto, SeedingBUILD, SeedingKMeansPP, SeedingLAB} {
		got, err := ParseSeeding(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if got, err := ParseSeeding(""); err != nil || got != SeedingAuto {
		t.Errorf("empty string: %v, %v", got, err)
	}
	if _, err := ParseSeeding("astrology"); err == nil {
		t.Error("bad seeding accepted")
	}
}

// TestSeedMedoidsShape checks every scheme returns k distinct in-range
// medoids on a golden dataset.
func TestSeedMedoidsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 300, K: 4, Dims: 5, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	for _, s := range []Seeding{SeedingAuto, SeedingBUILD, SeedingKMeansPP, SeedingLAB} {
		seeds, err := SeedMedoids(m, 4, s, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(seeds) != 4 {
			t.Fatalf("%v: %d seeds, want 4", s, len(seeds))
		}
		seen := map[int]bool{}
		for _, md := range seeds {
			if md < 0 || md >= m.N() {
				t.Fatalf("%v: seed %d out of range", s, md)
			}
			if seen[md] {
				t.Fatalf("%v: duplicate seed %d", s, md)
			}
			seen[md] = true
		}
	}
}

// TestSeedMedoidsRequiresRand: the randomized schemes must refuse to run
// without a source instead of silently degrading.
func TestSeedMedoidsRequiresRand(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	for _, s := range []Seeding{SeedingKMeansPP, SeedingLAB} {
		if _, err := SeedMedoids(m, 2, s, nil); err == nil {
			t.Errorf("%v: no error without a random source", s)
		}
	}
	// BUILD and auto (which falls back to BUILD) work rand-free.
	for _, s := range []Seeding{SeedingAuto, SeedingBUILD} {
		if _, err := SeedMedoids(m, 2, s, nil); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	if _, err := PAMRun(m, 2, PAMOptions{Seeding: SeedingKMeansPP}); err == nil {
		t.Error("PAMRun accepted kmeans++ without a random source")
	}
}

// TestKMeansPPNeverMuchWorse is the seeding quality property: across the
// golden planted datasets, k-means++ (and LAB) seeding must never worsen
// the final FasterPAM cost by more than 5% versus quadratic BUILD — the
// SWAP phase recovers the seeding's sloppiness.
func TestKMeansPPNeverMuchWorse(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + int(seed)%5
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 1200, K: k, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := ComputeDistMatrix(vecs, stats.Euclidean{})
		base, err := FasterPAM(m, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Seeding{SeedingKMeansPP, SeedingLAB} {
			c, err := PAMRun(m, k, PAMOptions{Seeding: s, Rand: rand.New(rand.NewSource(seed * 31))})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			if c.Cost > 1.05*base.Cost {
				t.Errorf("seed %d k=%d %v: cost %.4f vs BUILD %.4f (ratio %.4f > 1.05)",
					seed, k, s, c.Cost, base.Cost, c.Cost/base.Cost)
			}
		}
	}
}

// TestPAMRunK1 pins the k == 1 short-circuit: the seeding option is moot
// and the result must equal the exact BUILD optimum.
func TestPAMRunK1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float64, 80)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	want, err := FasterPAM(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PAMRun(m, 1, PAMOptions{Seeding: SeedingKMeansPP, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Medoids[0] != want.Medoids[0] {
		t.Fatalf("k=1: got medoid %d cost %v, want %d / %v", got.Medoids[0], got.Cost, want.Medoids[0], want.Cost)
	}
}

// TestPAMClassicFromSeeds: the classic SWAP must also accept
// randomized seeds and land within the usual local-optimum gap.
func TestPAMClassicFromSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 250, K: 3, Dims: 4, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeDistMatrix(vecs, stats.Euclidean{})
	want, err := PAMClassic(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := SeedMedoids(m, 3, SeedingKMeansPP, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pamClassicFrom(m, 3, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost > 1.05*want.Cost {
		t.Fatalf("classic from kmeans++ seeds: cost %.4f vs BUILD %.4f", got.Cost, want.Cost)
	}
}
