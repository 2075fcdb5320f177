package cores

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// holdAll marks the whole budget busy and returns the release of every
// core it took.
func holdAll() (release func()) {
	var releases []func()
	for range Width() {
		releases = append(releases, Hold())
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}
}

// goroutinesSeen runs a batch of n tasks and returns, per task, how many
// more goroutines existed while it ran than before Run started.
func goroutinesSeen(n int) []int {
	before := runtime.NumGoroutine()
	seen := make([]int, n)
	Run(n, func(i int) { seen[i] = runtime.NumGoroutine() - before })
	return seen
}

// TestRunClaimsOnlyFreeCores: with the whole budget held, Run starts no
// goroutine and runs the batch on the caller; with the budget free, every
// task runs on a goroutine Run started, and Run hands every core it lent
// back before it returns.
func TestRunClaimsOnlyFreeCores(t *testing.T) {
	release := holdAll()
	for i, extra := range goroutinesSeen(16) {
		if extra != 0 {
			t.Fatalf("budget held: task %d saw %d more goroutines", i, extra)
		}
	}
	release()
	if Width() < 2 {
		t.Skip("a one-core budget never lends a helper")
	}
	for i, extra := range goroutinesSeen(16) {
		if extra < 1 {
			t.Errorf("budget free: task %d ran with no goroutine started", i)
		}
	}
	if b := busy.Load(); b != 0 {
		t.Errorf("%d cores still busy after Run returned", b)
	}
}

// TestNestedRunNeverDeadlocks: a task may call Run, which finds its
// cores already lent and runs inline rather than waiting for one.
func TestNestedRunNeverDeadlocks(t *testing.T) {
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(4, func(int) {
			Run(4, func(int) {
				Run(4, func(int) { ran.Add(1) })
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Run did not return")
	}
	if ran.Load() != 64 {
		t.Errorf("ran %d innermost tasks, want 64", ran.Load())
	}
}

// TestRunUnbalancedBatch: tasks of very different lengths drain from one
// index, so every task runs exactly once however they interleave.
func TestRunUnbalancedBatch(t *testing.T) {
	for round := 0; round < 20; round++ {
		counts := make([]atomic.Int32, 37)
		Run(len(counts), func(i int) {
			if i%9 == 0 {
				time.Sleep(time.Millisecond)
			}
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: task %d ran %d times", round, i, c)
			}
		}
	}
}

// TestRunReraisesTaskPanic: a task's panic reaches the caller of Run, not
// the process, and only once the other tasks have returned.
func TestRunReraisesTaskPanic(t *testing.T) {
	var ran [8]atomic.Bool
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(len(ran), func(i int) {
			if i == 3 {
				panic("task 3")
			}
			time.Sleep(time.Millisecond)
			ran[i].Store(true)
		})
		return nil
	}()
	if got != "task 3" {
		t.Fatalf("recovered %v, want the task's panic", got)
	}
	if b := busy.Load(); b != 0 {
		t.Errorf("%d cores still busy after the panic", b)
	}
	if Width() < 2 {
		return // inline: the panic stops the batch where it is raised
	}
	for i := range ran {
		if i != 3 && !ran[i].Load() {
			t.Errorf("task %d had not run when the panic reached the caller", i)
		}
	}
}

// TestBatchReuse: a kept Batch runs fan-out after fan-out, a panicking
// one among them, each running every task once; the panic reaches that
// fan-out's caller only, and once warm a fan-out allocates nothing.
func TestBatchReuse(t *testing.T) {
	var b Batch
	const n = 16
	var counts [n]atomic.Int64
	count := func(i int) { counts[i].Add(1) }
	for round := 1; round <= 3; round++ {
		if round == 2 {
			func() {
				defer func() {
					if r := recover(); r != "task 5" {
						t.Fatalf("recovered %v, want the task's panic", r)
					}
				}()
				b.Run(n, func(i int) {
					if i == 5 {
						panic("task 5")
					}
				})
			}()
		}
		b.Run(n, count)
		for i := range counts {
			if got := counts[i].Load(); got != int64(round) {
				t.Fatalf("round %d: task %d ran %d times", round, i, got)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { b.Run(n, count) }); allocs > 0 {
		t.Errorf("a warm batch's fan-out allocated %.1f times", allocs)
	}
	if c := busy.Load(); c != 0 {
		t.Errorf("%d cores still busy after the batch's fan-outs", c)
	}
}
