// Package cores owns the process's CPU budget: GOMAXPROCS cores. A job
// worker holds one while it runs a job (Hold), and every data-parallel
// loop of a build — the distance-matrix fill, BUILD, the SWAP blocks,
// CLARA's per-sample runs, the dependency graph's MI rows — borrows the
// cores free at the moment it starts (Run). An idle server therefore
// fans a build out across its cores, and a server whose workers are all
// busy runs every build inline. Results never depend on it: every loop
// partitions by input and reduces ties to the lowest index.
//
// This is the one place a computation goroutine is started; blaeu-lint's
// fanout analyzer rejects a go statement in the build packages.
package cores

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	width = runtime.GOMAXPROCS(0)
	busy  atomic.Int64 // cores held by running jobs or lent to Run
)

// Width is the budget's size, and the chunk count data-parallel loops
// split their input into.
func Width() int { return width }

// Hold marks one core busy until the returned release is called.
func Hold() (release func()) {
	busy.Add(1)
	return func() { busy.Add(-1) }
}

// claim lends up to want free cores and returns how many it lent.
func claim(want int) int {
	for {
		b := busy.Load()
		got := min(int64(want), int64(width)-b)
		if got <= 0 || busy.CompareAndSwap(b, b+got) {
			return int(max(got, 0))
		}
	}
}

// Run calls task(i) for every i in [0, n) and returns once all have
// returned. It claims as helpers the cores free when it starts, at most
// min(n, Width())-1, so that a batch never runs on more goroutines than
// the budget has cores. With none free the tasks run inline, in index
// order. Otherwise the helpers and the caller's share drain one shared
// index, each on a goroutine, while the caller waits: run inline, the
// caller's share would keep the last helper parked behind it on its own
// processor. A task may call Run itself. A task's panic is re-raised on
// the caller once every drainer has returned, so the caller's recover
// sees it.
func Run(n int, task func(i int)) {
	helpers := claim(min(n, width) - 1)
	if helpers == 0 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	defer busy.Add(-int64(helpers))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	drain := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			task(i)
		}
	}
	wg.Add(helpers + 1)
	for range helpers + 1 {
		go drain()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
