package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cores"
)

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunDone(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 2})
	defer p.Close()
	j, err := p.Submit("s1", "", "work", func(ctx context.Context, j *Job) (any, error) {
		j.SetProgress(0.5)
		j.SetMeta("touched", true)
		return 42, nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if j.Status() != StatusDone {
		t.Errorf("status = %s", j.Status())
	}
	if j.Result() != 42 {
		t.Errorf("result = %v", j.Result())
	}
	if j.Progress() != 1 {
		t.Errorf("done progress = %g, want 1", j.Progress())
	}
	info := j.Info()
	if info.Meta["touched"] != true || info.Status != StatusDone || info.ID != j.ID() {
		t.Errorf("info = %+v", info)
	}
	if got, ok := p.Get(j.ID()); !ok || got != j {
		t.Error("Get lost the finished job")
	}
}

func TestFailedJob(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	boom := errors.New("boom")
	j, _ := p.Submit("s1", "", "work", func(ctx context.Context, j *Job) (any, error) {
		return nil, boom
	}, SubmitOptions{})
	if err := j.Wait(waitCtx(t)); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusFailed {
		t.Errorf("status = %s", j.Status())
	}
}

// TestPanicBecomesFailure: a job that panics — on its own goroutine, or
// in a task its fan-out ran on a helper — ends failed, and the session's
// next job runs. The one-worker pool leaves a two-core budget a free
// core, so the fan-out does run on helpers there.
func TestPanicBecomesFailure(t *testing.T) {
	for name, fn := range map[string]Func{
		"job": func(ctx context.Context, j *Job) (any, error) {
			panic("kaboom")
		},
		"fan-out task": func(ctx context.Context, j *Job) (any, error) {
			cores.Run(4, func(int) { panic("kaboom") })
			return nil, nil
		},
	} {
		p := NewPoolConfig(Config{Workers: 1})
		j, _ := p.Submit("s1", "", "work", fn, SubmitOptions{})
		if err := j.Wait(waitCtx(t)); err == nil {
			t.Fatalf("%s: panicking job should fail", name)
		}
		if j.Status() != StatusFailed {
			t.Errorf("%s: status = %s", name, j.Status())
		}
		// The worker survived the panic.
		j2, _ := p.Submit("s1", "", "work", func(ctx context.Context, j *Job) (any, error) { return "ok", nil }, SubmitOptions{})
		if err := j2.Wait(waitCtx(t)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p.Close()
	}
}

// TestFanOutInlineWhenWorkersBusy: with every worker of a pool as wide
// as the cores budget running a job, no core is free, so a job's fan-out
// runs inline and starts no goroutine.
func TestFanOutInlineWhenWorkersBusy(t *testing.T) {
	p := NewPoolConfig(Config{})
	defer p.Close()
	for i := 1; i < p.Workers(); i++ {
		release, _ := gate(t, p, fmt.Sprintf("busy%d", i))
		defer close(release)
	}
	j, _ := p.Submit("fan", "", "fanout", func(ctx context.Context, j *Job) (any, error) {
		before := runtime.NumGoroutine()
		seen := make([]int, 16)
		cores.Run(len(seen), func(i int) { seen[i] = runtime.NumGoroutine() - before })
		return slices.Max(seen), nil
	}, SubmitOptions{})
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if extra := j.Result(); extra != 0 {
		t.Errorf("with every worker busy, the fan-out started %v goroutines", extra)
	}
}

// TestPerSessionSerializationAndOrder: one session's jobs must run
// strictly FIFO, never two at once, even with spare workers.
func TestPerSessionSerializationAndOrder(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 4})
	defer p.Close()
	var mu sync.Mutex
	var order []int
	var active, maxActive int32
	var jobs []*Job
	for i := 0; i < 8; i++ {
		i := i
		j, err := p.Submit("s1", "", "work", func(ctx context.Context, j *Job) (any, error) {
			n := atomic.AddInt32(&active, 1)
			if n > atomic.LoadInt32(&maxActive) {
				atomic.StoreInt32(&maxActive, n)
			}
			time.Sleep(time.Millisecond)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			atomic.AddInt32(&active, -1)
			return nil, nil
		}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	if maxActive != 1 {
		t.Errorf("max concurrent jobs of one session = %d, want 1", maxActive)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("run order %v, want FIFO", order)
		}
	}
}

// TestRoundRobinFairness: with one worker, a late-arriving session must
// be served before the first session's backlog drains.
func TestRoundRobinFairness(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	gate, _ := p.Submit("a", "", "gate", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-release
		return nil, nil
	}, SubmitOptions{})
	<-started // the worker is now busy; everything below queues

	var mu sync.Mutex
	var order []string
	mark := func(name string) Func {
		return func(ctx context.Context, j *Job) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	a2, _ := p.Submit("a", "", "work", mark("a2"), SubmitOptions{})
	a3, _ := p.Submit("a", "", "work", mark("a3"), SubmitOptions{})
	b1, _ := p.Submit("b", "", "work", mark("b1"), SubmitOptions{})
	close(release)
	for _, j := range []*Job{gate, a2, a3, b1} {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a2", "b1", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (round-robin across sessions)", order, want)
		}
	}
}

// TestDrainedTenantDoesNotSkipNext: single-job sessions queued behind a
// busy worker — the default deployment's shape, every session its own
// tenant and one click at a time — run in arrival order. A dispatch that
// drains its tenant leaves the cursor on the next tenant; advancing on
// top of that (the old popLocked) skipped one per dispatch and ran
// a b c d as b d c a. The same one level down: a tenant's single-job
// sessions run in arrival order too.
func TestDrainedTenantDoesNotSkipNext(t *testing.T) {
	for _, tenant := range []string{"", "shared"} {
		p := NewPoolConfig(Config{Workers: 1})
		release, _ := gateTenant(t, p, "gate", tenant)
		var order []string // written by the one worker, read after the waits
		var all []*Job
		want := []string{"a", "b", "c", "d"}
		for _, s := range want {
			j, err := p.Submit(s, tenant, "work", func(ctx context.Context, j *Job) (any, error) {
				order = append(order, j.Session())
				return nil, nil
			}, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
		}
		close(release)
		for _, j := range all {
			if err := j.Wait(waitCtx(t)); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("tenant %q: ran %v, want arrival order %v", tenant, order, want)
		}
	}
}

func TestCancelQueued(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	p.Submit("a", "", "gate", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-release
		return nil, nil
	}, SubmitOptions{})
	<-started
	ran := false
	q, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		ran = true
		return nil, nil
	}, SubmitOptions{})
	if !q.Cancel() {
		t.Fatal("cancel of a queued job should succeed")
	}
	if err := q.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if q.Status() != StatusCancelled {
		t.Errorf("status = %s", q.Status())
	}
	if ran {
		t.Error("cancelled queued job must never run")
	}
	if q.Cancel() {
		t.Error("second cancel should report no effect")
	}
}

func TestCancelRunning(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	started := make(chan struct{})
	j, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{})
	<-started
	if !j.Cancel() {
		t.Fatal("cancel of a running job should succeed")
	}
	if err := j.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusCancelled {
		t.Errorf("status = %s", j.Status())
	}
}

func TestCancelSession(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	started := make(chan struct{})
	running, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{})
	<-started
	q1, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) { return nil, nil }, SubmitOptions{})
	other, _ := p.Submit("b", "", "work", func(ctx context.Context, j *Job) (any, error) { return "b", nil }, SubmitOptions{})
	if n := p.CancelSession("a"); n != 2 {
		t.Errorf("cancelled %d jobs, want 2", n)
	}
	for _, j := range []*Job{running, q1} {
		if err := j.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	}
	// The other session is untouched and still runs.
	if err := other.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsAndStops(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	started := make(chan struct{})
	running, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{})
	<-started
	queued, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) { return nil, nil }, SubmitOptions{})
	p.Close()
	if running.Status() != StatusCancelled || queued.Status() != StatusCancelled {
		t.Errorf("statuses after close: %s, %s", running.Status(), queued.Status())
	}
	if _, err := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) { return nil, nil }, SubmitOptions{}); err == nil {
		t.Error("submit after close should fail")
	}
	p.Close() // idempotent
}

func TestSessionJobsOrdered(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	var want []string
	for i := 0; i < 3; i++ {
		j, _ := p.Submit("a", "", fmt.Sprintf("k%d", i), func(ctx context.Context, j *Job) (any, error) { return nil, nil }, SubmitOptions{})
		want = append(want, j.ID())
	}
	p.Submit("b", "", "other", func(ctx context.Context, j *Job) (any, error) { return nil, nil }, SubmitOptions{})
	got := p.SessionJobs("a")
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, j := range got {
		if j.ID() != want[i] {
			t.Errorf("jobs[%d] = %s, want %s", i, j.ID(), want[i])
		}
	}
}

// TestSessionJobsInterleavedCancel pins submit order when the session's
// jobs are spread over all three per-session indexes — one running, two
// queued, one cancelled mid-queue and therefore terminal ahead of its
// elders — with another session's jobs interleaved in the ID space.
func TestSessionJobsInterleavedCancel(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	release, a0 := gate(t, p, "a")
	want := map[string][]string{"a": {a0.ID()}}
	var a2 *Job
	for i := 1; i <= 3; i++ {
		for _, s := range []string{"a", "b"} {
			j, err := p.Submit(s, "", "work", noop, SubmitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], j.ID())
			if s == "a" && i == 2 {
				a2 = j
			}
		}
	}
	if !a2.Cancel() {
		t.Fatal("cancelling a queued job had no effect")
	}
	check := func(when string) {
		t.Helper()
		for s, ids := range want {
			got := p.SessionJobs(s)
			if len(got) != len(ids) {
				t.Fatalf("%s: session %s lists %d jobs, want %d", when, s, len(got), len(ids))
			}
			for i, j := range got {
				if j.ID() != ids[i] || j.Session() != s {
					t.Errorf("%s: session %s jobs[%d] = %s (session %s), want %s", when, s, i, j.ID(), j.Session(), ids[i])
				}
			}
		}
	}
	check("running+queued+cancelled")
	close(release)
	for _, s := range []string{"a", "b"} {
		for _, j := range p.SessionJobs(s) {
			if err := j.Wait(waitCtx(t)); err != nil && j != a2 {
				t.Fatal(err)
			}
		}
	}
	check("all terminal")
}

// TestLiveJobsListsInFlightOnly: LiveJobs snapshots the running job and
// the queued ones in submit order — not a job cancelled in the queue,
// and nothing once every job is terminal.
func TestLiveJobsListsInFlightOnly(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	release, running := gate(t, p, "a")
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := p.Submit("a", "", "work", noop, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	queued[1].Cancel()
	want := []*Job{running, queued[0], queued[2]}
	got := p.LiveJobs("a")
	if len(got) != len(want) {
		t.Fatalf("LiveJobs lists %d jobs, want %d", len(got), len(want))
	}
	for i, info := range got {
		if info.ID != want[i].ID() || info.Status.Terminal() {
			t.Errorf("LiveJobs[%d] = %s (%s), want %s in flight", i, info.ID, info.Status, want[i].ID())
		}
	}
	close(release)
	for _, j := range want {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.LiveJobs("a"); len(got) != 0 {
		t.Errorf("LiveJobs lists %d jobs after all finished", len(got))
	}
}

func TestProgressClampedAndMonotone(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	j, _ := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		j.SetProgress(0.8)
		j.SetProgress(0.2) // regression: ignored
		if got := j.Progress(); got != 0.8 {
			return nil, fmt.Errorf("progress = %g, want 0.8", got)
		}
		j.SetProgress(7) // clamped
		if got := j.Progress(); got != 1 {
			return nil, fmt.Errorf("progress = %g, want 1", got)
		}
		return nil, nil
	}, SubmitOptions{})
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}
