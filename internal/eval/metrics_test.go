package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestARIIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if v := AdjustedRandIndex(a, a); math.Abs(v-1) > 1e-12 {
		t.Errorf("ARI(a,a) = %g, want 1", v)
	}
	// Renamed labels: still identical partition.
	b := []int{5, 5, 7, 7, 9, 9}
	if v := AdjustedRandIndex(a, b); math.Abs(v-1) > 1e-12 {
		t.Errorf("ARI under renaming = %g, want 1", v)
	}
}

func TestARIIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	if v := AdjustedRandIndex(a, b); math.Abs(v) > 0.01 {
		t.Errorf("ARI independent = %g, want ~0", v)
	}
}

func TestARISkipsNegative(t *testing.T) {
	a := []int{0, 0, 1, 1, -1}
	b := []int{0, 0, 1, 1, 0}
	if v := AdjustedRandIndex(a, b); math.Abs(v-1) > 1e-12 {
		t.Errorf("ARI with skip = %g", v)
	}
	if v := AdjustedRandIndex([]int{0}, []int{0}); v != 0 {
		t.Error("n<2 should return 0")
	}
}

func TestARIBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
			b[i] = r.Intn(4)
		}
		v := AdjustedRandIndex(a, b)
		return v <= 1+1e-12 && v >= -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSetRecovery(t *testing.T) {
	truth := [][]string{{"a", "b", "c"}, {"x", "y"}}
	if v := SetRecovery(truth, truth); v != 1 {
		t.Errorf("self recovery = %g", v)
	}
	pred := [][]string{{"a", "b"}, {"c"}, {"x", "y"}}
	// theme1 best jaccard = 2/3, theme2 = 1; weighted (3*2/3 + 2*1)/5 = 0.8
	if v := SetRecovery(truth, pred); math.Abs(v-0.8) > 1e-12 {
		t.Errorf("partial recovery = %g, want 0.8", v)
	}
	if v := SetRecovery(nil, pred); v != 0 {
		t.Error("empty truth should be 0")
	}
	if v := SetRecovery(truth, nil); v != 0 {
		t.Error("empty pred should be 0")
	}
}

func TestARIBetterThanChanceOrdering(t *testing.T) {
	// A labeling agreeing on 90% of points must beat one agreeing on 60%.
	rng := rand.New(rand.NewSource(2))
	n := 5000
	truth := make([]int, n)
	good := make([]int, n)
	bad := make([]int, n)
	for i := range truth {
		truth[i] = rng.Intn(3)
		good[i] = truth[i]
		bad[i] = truth[i]
		if rng.Float64() < 0.1 {
			good[i] = rng.Intn(3)
		}
		if rng.Float64() < 0.4 {
			bad[i] = rng.Intn(3)
		}
	}
	if AdjustedRandIndex(truth, good) <= AdjustedRandIndex(truth, bad) {
		t.Error("ARI ordering violated")
	}
}
