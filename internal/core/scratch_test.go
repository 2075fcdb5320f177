package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// coldExplorer opens an explorer over a pinned table with the cache
// off, so that every build is cold and computes its own matrix.
func coldExplorer(t *testing.T, n int, opts Options) *Explorer {
	t.Helper()
	opts.MapCacheSize = -1
	e, err := NewExplorer(pinnedTable(n, 21).Table, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestColdBuildReusesScratchMatrix: a session's second cold build at the
// same sample size computes its matrix on the first build's storage, so
// it allocates less than half of one matrix all told.
func TestColdBuildReusesScratchMatrix(t *testing.T) {
	const n = 1500
	e := coldExplorer(t, n, Options{Seed: 1})
	first, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.SampleSize != n || e.scratch.Load() == nil {
		t.Fatalf("first build clustered %d objects and left the slot %v", first.SampleSize, e.scratch.Load())
	}
	got := allocated(func() {
		if _, err := e.SelectTheme(0); err != nil {
			t.Fatal(err)
		}
	})
	if matrix := uint64(n*(n-1)/2) * 8; got >= matrix/2 {
		t.Errorf("second cold build allocated %d bytes, one matrix is %d", got, matrix)
	}
}

// panicMetric is Euclidean until armed; armed, it panics, as a metric
// meeting a vector it cannot handle would.
type panicMetric struct {
	stats.Euclidean
	armed atomic.Bool
}

func (m *panicMetric) DistRow(a []float64, bs [][]float64, dst []float64) {
	if m.armed.Load() {
		panic("distance row panicked")
	}
	m.Euclidean.DistRow(a, bs, dst)
}

// TestPanickingBuildLeavesScratchEmpty: a build whose metric panics
// inside the matrix fill's fan-out panics on the build's own goroutine,
// where a recover can catch it, and drops its matrix instead of
// returning it to the slot.
func TestPanickingBuildLeavesScratchEmpty(t *testing.T) {
	metric := &panicMetric{}
	e := coldExplorer(t, 600, Options{Seed: 2})
	e.metric = metric
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	if e.scratch.Load() == nil {
		t.Fatal("a finished build left the slot empty")
	}
	metric.armed.Store(true)
	b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build did not panic")
			}
		}()
		_, _ = b.Run(context.Background(), nil)
	}()
	if m := e.scratch.Load(); m != nil {
		t.Fatalf("a panicked build returned its %d-object matrix to the slot", m.N())
	}
}

// TestConcurrentColdBuildsScratch: two cold builds prepared on one
// explorer and run at once contend for its one scratch slot — one takes
// the spent matrix, the other allocates — and both give the maps serial
// runs give (run under -race in CI).
func TestConcurrentColdBuildsScratch(t *testing.T) {
	digests := func(concurrent bool) string {
		e := coldExplorer(t, 300, Options{Seed: 4})
		if _, err := e.SelectTheme(0); err != nil { // fills the slot
			t.Fatal(err)
		}
		builds := make([]*MapBuild, 2)
		for i := range builds {
			b, err := e.Prepare(Action{Kind: ActionSelect, Theme: i})
			if err != nil {
				t.Fatal(err)
			}
			builds[i] = b
		}
		maps := make([]*Map, len(builds))
		errs := make([]error, len(builds))
		var wg sync.WaitGroup
		for i, b := range builds {
			run := func() { maps[i], errs[i] = b.Run(context.Background(), nil) }
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		var sb strings.Builder
		for i, m := range maps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			mapDigest(&sb, builds[i].next.Detail, m)
		}
		if e.scratch.Load() == nil {
			t.Fatal("neither build returned its matrix to the slot")
		}
		return sb.String()
	}
	want := digests(false)
	for round := 0; round < 3; round++ {
		if got := digests(true); got != want {
			t.Fatalf("round %d: concurrent builds gave\n%s\nserial runs\n%s", round, got, want)
		}
	}
}
