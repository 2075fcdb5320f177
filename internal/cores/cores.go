// Package cores owns the process's CPU budget: GOMAXPROCS cores. A job
// worker holds one while it runs a job (Hold), and every data-parallel
// loop of a build — the distance-matrix fill, BUILD, the SWAP blocks,
// CLARA's per-sample runs, the dependency graph's MI rows — borrows the
// cores free at the moment it starts (Run, or the Run of a Batch its
// owner keeps). An idle server therefore
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
	new(Batch).fan(helpers, n, task)
}

// Batch is the state a fanned-out Run's drainers share — the tasks, the
// next index to claim, the wait group the caller waits on and the first
// panic — kept by an owner that fans out over and over, so that its
// fan-outs allocate nothing once its first has run. The zero value is
// ready to use; a Batch runs one fan-out at a time.
type Batch struct {
	n        int
	task     func(i int)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[any]
	drain    func() // b.drainTasks, bound on the first fan-out
}

// Run is the package's Run on the batch's state.
func (b *Batch) Run(n int, task func(i int)) {
	helpers := claim(min(n, width) - 1)
	if helpers == 0 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	b.fan(helpers, n, task)
}

// fan runs the n tasks on helpers claimed cores and the caller's share,
// each on a goroutine, and gives the helpers back.
func (b *Batch) fan(helpers, n int, task func(i int)) {
	defer busy.Add(-int64(helpers))
	b.n, b.task = n, task
	b.next.Store(0)
	if b.drain == nil {
		b.drain = b.drainTasks
	}
	b.wg.Add(helpers + 1)
	for range helpers + 1 {
		go b.drain()
	}
	b.wg.Wait()
	b.task = nil // a kept batch holds no caller's task
	if r := b.panicked.Swap(nil); r != nil {
		panic(*r)
	}
}

// drainTasks runs tasks off the shared index until none is left. A
// task's panic stops the drainer and is kept if it is the first.
func (b *Batch) drainTasks() {
	defer b.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			first := r // only a panic pays for the kept copy
			b.panicked.CompareAndSwap(nil, &first)
		}
	}()
	for i := int(b.next.Add(1)) - 1; i < b.n; i = int(b.next.Add(1)) - 1 {
		b.task(i)
	}
}
