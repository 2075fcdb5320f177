package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cores"
	"repro/internal/stats"
)

// claraFixture builds a planted-blob oracle big enough that CLARA
// actually samples (n > SampleSize).
func claraFixture(t testing.TB, n int) Oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	vecs, _ := blobs(rng, 4, n, 5, 8)
	return NewLazyOracle(vecs, stats.Euclidean{})
}

// inline runs f with the whole cores budget held, so that every fan-out
// inside it — CLARA's per-sample runs included — runs on the caller, in
// index order.
func inline(f func()) {
	var releases []func()
	for range cores.Width() {
		releases = append(releases, cores.Hold())
	}
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	f()
}

// TestCLARAParallelMatchesSequential is the differential contract of the
// fan-out: under a pinned seed, a run with every fan-out inline and one
// chunk per loop, and runs fanned out over the free cores at every chunk
// width, return byte-identical assignments, medoids and cost.
func TestCLARAParallelMatchesSequential(t *testing.T) {
	old := maxWorkers
	defer func() { maxWorkers = old }()
	o := claraFixture(t, 2000)
	run := func() *Clustering {
		c, err := CLARA(o, 3, CLARAOptions{Rand: rand.New(rand.NewSource(42))})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	maxWorkers = 1
	var want *Clustering
	inline(func() { want = run() })
	for _, workers := range []int{1, 2, 4, 8} {
		maxWorkers = workers
		assertIdenticalClustering(t, fmt.Sprintf("width %d", workers), o.N(), run(), want)
	}
}

// TestCLARACancelled: a cancelled context must surface as the context's
// error, before any clustering is returned.
func TestCLARACancelled(t *testing.T) {
	o := claraFixture(t, 1500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CLARA(o, 3, CLARAOptions{Context: ctx, Rand: rand.New(rand.NewSource(1))}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := AutoK(o, AutoKOptions{Context: ctx, Rand: rand.New(rand.NewSource(1))}); err != context.Canceled {
		t.Fatalf("AutoK err = %v, want context.Canceled", err)
	}
}

// TestCLARAParallelQualityAtScale: the fan-out must not cost clustering
// quality on separated blobs.
func TestCLARAParallelQualityAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs, truth := blobs(rng, 3, 1500, 4, 10)
	o := NewLazyOracle(vecs, stats.Euclidean{})
	c, err := CLARA(o, 3, CLARAOptions{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if acc := agree(truth, c.Labels); acc < 0.95 {
		t.Errorf("parallel CLARA accuracy = %.3f, want >= 0.95", acc)
	}
}
