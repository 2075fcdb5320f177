package cluster

import (
	"context"
	"math/rand"
	"sync"
	"testing"

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

// TestCLARAParallelMatchesSequential is the differential contract of the
// fan-out: under a pinned seed, every parallelism level (and the
// external-runner path) must return byte-identical assignments, medoids
// and cost.
func TestCLARAParallelMatchesSequential(t *testing.T) {
	o := claraFixture(t, 2000)
	run := func(par int, runner TaskRunner) *Clustering {
		c, err := CLARA(o, 3, CLARAOptions{
			Samples:     6,
			Parallelism: par,
			Runner:      runner,
			Rand:        rand.New(rand.NewSource(42)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	want := run(1, nil)
	for _, par := range []int{2, 4, 8} {
		got := run(par, nil)
		if got.Cost != want.Cost {
			t.Fatalf("parallelism %d: cost %g, want %g", par, got.Cost, want.Cost)
		}
		for i := range want.Medoids {
			if got.Medoids[i] != want.Medoids[i] {
				t.Fatalf("parallelism %d: medoids %v, want %v", par, got.Medoids, want.Medoids)
			}
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("parallelism %d: label[%d] = %d, want %d", par, i, got.Labels[i], want.Labels[i])
			}
		}
	}
	// The scheduler-hook path must agree too.
	got := run(1, goRunner{})
	if got.Cost != want.Cost {
		t.Fatalf("runner path: cost %g, want %g", got.Cost, want.Cost)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("runner path: label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

// goRunner is a maximally concurrent TaskRunner: every task on its own
// goroutine, the worst case for ordering assumptions.
type goRunner struct{}

func (goRunner) RunTasks(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(task func()) {
			defer wg.Done()
			task()
		}(task)
	}
	wg.Wait()
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
	c, err := CLARA(o, 3, CLARAOptions{Parallelism: 4, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if acc := agree(truth, c.Labels); acc < 0.95 {
		t.Errorf("parallel CLARA accuracy = %.3f, want >= 0.95", acc)
	}
}
