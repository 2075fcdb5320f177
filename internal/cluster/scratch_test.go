package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestDirtyScratchMatchesFresh: one Scratch sweeps a sequence of oracles
// whose n grows and shrinks, on the exact path and on CLARA, over
// matrices and lazy oracles, at two k ranges. Every sweep gives, bit for bit, what a
// fresh AutoK gives on a same-seed source, and leaves the source where
// the fresh sweep leaves it.
func TestDirtyScratchMatchesFresh(t *testing.T) {
	sizes := []int{1100, 300, 1500, 90, 1100}
	type storage struct {
		name string
		o    []Oracle
	}
	var stores []storage
	for _, name := range []string{"matrix", "lazy"} {
		st := storage{name: name}
		for i, n := range sizes {
			vecs := sweepVecs(n, 1+i%2, int64(40+i))
			if name == "matrix" {
				st.o = append(st.o, ComputeDistMatrix(vecs, stats.Euclidean{}))
			} else {
				st.o = append(st.o, NewLazyOracle(vecs, stats.Euclidean{}))
			}
		}
		stores = append(stores, st)
	}
	for _, tc := range []struct {
		name       string
		large      int
		kMin, kMax int
	}{
		{"exact", 2000, 2, 6},
		{"clara", 200, 2, 9},
	} {
		for _, st := range stores {
			var sc Scratch
			for i, o := range st.o {
				label := fmt.Sprintf("%s/%s/n=%d", tc.name, st.name, o.N())
				opts := func(seed int64) AutoKOptions {
					return AutoKOptions{KMin: tc.kMin, KMax: tc.kMax, LargeThreshold: tc.large,
						Rand: rand.New(rand.NewSource(seed))}
				}
				seed := int64(100 + i)
				gotOpts, wantOpts := opts(seed), opts(seed)
				got, err := sc.AutoK(o, gotOpts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := AutoK(o, wantOpts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameRun(t, label, got, want, gotOpts.Rand, wantOpts.Rand)
				if len(got.ClusterSilhouettes) != len(want.ClusterSilhouettes) {
					t.Fatalf("%s: %d per-cluster silhouettes, want %d", label, len(got.ClusterSilhouettes), len(want.ClusterSilhouettes))
				}
				for c := range want.ClusterSilhouettes {
					if !sameBits(got.ClusterSilhouettes[c], want.ClusterSilhouettes[c]) {
						t.Fatalf("%s: cluster %d silhouette %v, want %v", label, c, got.ClusterSilhouettes[c], want.ClusterSilhouettes[c])
					}
				}
			}
		}
	}
}

// autoKBytes is what a warm Scratch.AutoK allocates over o, with every
// fan-out inline so that the count holds on any number of cores.
func autoKBytes(t *testing.T, o Oracle, opts func() AutoKOptions) uint64 {
	t.Helper()
	var sc Scratch
	var got uint64
	inline(func() {
		for range 2 { // warm the scratch and the runtime's size classes
			if _, err := sc.AutoK(o, opts()); err != nil {
				t.Fatal(err)
			}
		}
		run := opts()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sc.AutoK(o, run); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got = after.TotalAlloc - before.TotalAlloc
	})
	return got
}

// sweepSlack is what a warm sweep may allocate: the Clustering headers
// and medoids of each k, none sized by n. The fan-outs build no
// closures (their task state is the run's and the scratch's), and a
// sweep of each kind below reads 696 B: the slack is about three times
// that.
const sweepSlack = 2 << 10

// TestWarmAutoKAllocatesOnlyWhatItKeeps is the cluster stage's byte law:
// a sweep in a warm Scratch allocates at most sweepSlack, on CLARA with
// Monte-Carlo silhouettes at explore_mem's n = 1 100 and on the exact
// path at explore_seg's n = 300, where a fresh sweep allocates its
// buffers anew (about 0.3 MB), and on CLARA with Monte-Carlo silhouettes
// over a lazy oracle, whose sample and round matrices the scratch keeps.
func TestWarmAutoKAllocatesOnlyWhatItKeeps(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		threshold int
		lazy      bool
	}{{"clara", 1100, 1024, false}, {"exact", 300, 1024, false}, {"clara/lazy", 1100, 1024, true}} {
		vecs := sweepVecs(tc.n, 1, 61)
		var o Oracle = ComputeDistMatrix(vecs, stats.Euclidean{})
		if tc.lazy {
			o = NewLazyOracle(vecs, stats.Euclidean{})
		}
		opts := func() AutoKOptions {
			return AutoKOptions{KMin: 2, KMax: 6, LargeThreshold: tc.threshold,
				MCSilhouetteThreshold: tc.threshold, Rand: rand.New(rand.NewSource(1))}
		}
		if got := autoKBytes(t, o, opts); got > sweepSlack {
			t.Errorf("%s: a warm sweep over %d objects allocated %d bytes, budget %d", tc.name, tc.n, got, sweepSlack)
		}
	}
}

// infVecs returns n vectors in loose groups with every stride-th one
// holding an infinite coordinate, so that every row sum BUILD scores is
// +Inf or NaN.
func infVecs(n, stride int) [][]float64 {
	vecs := sweepVecs(n, 1, 83)
	for i := 0; i < n; i += stride {
		vecs[i] = append([]float64{math.Inf(1)}, vecs[i][1:]...)
	}
	return vecs
}

// TestNoFiniteDistanceIsAnError: when every object's distances sum to
// +Inf or NaN, BUILD has no medoid to pick. PAM, CLARA and AutoK, on the
// exact path and on CLARA's, over either storage, return
// ErrNoFiniteDistance instead of indexing object −1.
func TestNoFiniteDistanceIsAnError(t *testing.T) {
	exact := infVecs(40, 40)   // one infinite object among 40
	sampled := infVecs(600, 2) // every other object infinite: each sample holds some
	for _, tc := range []struct {
		name string
		run  func(Oracle) error
		vecs [][]float64
	}{
		{"PAM", func(o Oracle) error { _, err := PAM(pairMatrix(o), 3); return err }, exact},
		{"AutoK/exact", func(o Oracle) error {
			_, err := AutoK(o, AutoKOptions{Rand: rand.New(rand.NewSource(1))})
			return err
		}, exact},
		{"CLARA", func(o Oracle) error {
			_, err := CLARA(o, 3, CLARAOptions{Rand: rand.New(rand.NewSource(1))})
			return err
		}, sampled},
		{"AutoK/clara", func(o Oracle) error {
			_, err := AutoK(o, AutoKOptions{LargeThreshold: 100, Rand: rand.New(rand.NewSource(1))})
			return err
		}, sampled},
	} {
		for _, o := range []Oracle{ComputeDistMatrix(tc.vecs, stats.Euclidean{}), NewLazyOracle(tc.vecs, stats.Euclidean{})} {
			if err := tc.run(o); !errors.Is(err, ErrNoFiniteDistance) {
				t.Errorf("%s over %T: err = %v, want ErrNoFiniteDistance", tc.name, o, err)
			}
		}
	}
}
