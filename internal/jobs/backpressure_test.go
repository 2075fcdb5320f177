package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate submits a job that occupies a worker until release is closed, and
// waits for it to be running.
func gate(t *testing.T, p *Pool, session string) (release chan struct{}, j *Job) {
	t.Helper()
	return gateTenant(t, p, session, "")
}

// gateTenant is gate with the session's tenant said.
func gateTenant(t *testing.T, p *Pool, session, tenant string) (release chan struct{}, j *Job) {
	t.Helper()
	started := make(chan struct{})
	release = make(chan struct{})
	j, err := p.Submit(session, tenant, "gate", func(ctx context.Context, j *Job) (any, error) {
		close(started)
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	return release, j
}

func noop(ctx context.Context, j *Job) (any, error) { return nil, nil }

func TestQueueFullPerSession(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1, MaxQueuedPerSession: 2})
	defer p.Close()
	release, _ := gate(t, p, "a")
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := p.Submit("a", "", "work", noop, SubmitOptions{}); err != nil {
			t.Fatalf("submit %d under the cap: %v", i, err)
		}
	}
	_, err := p.Submit("a", "", "work", noop, SubmitOptions{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit err = %v, want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Scope != ScopeSession || qf.Key != "a" || qf.Limit != 2 {
		t.Errorf("queue-full detail = %+v", qf)
	}
	// Another session is not affected by a's cap.
	if _, err := p.Submit("b", "", "work", noop, SubmitOptions{}); err != nil {
		t.Fatalf("other session rejected: %v", err)
	}
	st := p.Stats()
	if st.Rejected != 1 || st.Tenants["a"].Rejected != 1 {
		t.Errorf("rejected counters = %d / %d, want 1 / 1", st.Rejected, st.Tenants["a"].Rejected)
	}
}

func TestQueueFullGlobal(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1, MaxQueued: 2})
	defer p.Close()
	release, _ := gate(t, p, "a")
	if _, err := p.Submit("b", "", "work", noop, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("c", "", "work", noop, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Submit("d", "", "work", noop, SubmitOptions{})
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Scope != ScopePool || qf.Limit != 2 {
		t.Fatalf("over-cap submit err = %v, want pool-scoped QueueFullError", err)
	}
	// The running job does not count against the queue: once the queue
	// drains, submissions are accepted again.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := p.Submit("d", "", "work", noop, SubmitOptions{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained below the cap")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWeightedFairness: under contention a weight-2 tenant must complete
// ~2× the jobs of a weight-1 tenant, and the weight-1 tenant must not
// starve.
func TestWeightedFairness(t *testing.T) {
	p := NewPoolConfig(Config{
		Workers: 1,
		Weights: map[string]int{"a": 2, "b": 1},
	})
	defer p.Close()
	release, g := gateTenant(t, p, "a-s1", "a")

	var mu sync.Mutex
	var order []string
	mark := func(tenant string) Func {
		return func(ctx context.Context, j *Job) (any, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	var all []*Job
	for i := 0; i < 20; i++ {
		ja, err := p.Submit("a-s1", "a", "work", mark("a"), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jb, err := p.Submit("b-s1", "b", "work", mark("b"), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ja, jb)
	}
	close(release)
	if err := g.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	for _, j := range all {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Every window of 6 completions must hold ~4 a's and ~2 b's (one WRR
	// round is a,a,b): 2:1 throughput with no starvation.
	for end := 6; end <= 30; end += 6 {
		na := 0
		for _, s := range order[:end] {
			if s == "a" {
				na++
			}
		}
		nb := end - na
		if na < 2*end/3-1 || na > 2*end/3+1 {
			t.Fatalf("after %d completions: a=%d b=%d, want ~2:1 (order %v)", end, na, nb, order[:end])
		}
		if nb == 0 {
			t.Fatalf("weight-1 tenant starved in the first %d completions: %v", end, order[:end])
		}
	}
}

// TestMaxInFlightQuota: a tenant at an in-flight quota of 1 never runs
// two jobs at once even with idle workers and multiple sessions, and
// other tenants keep dispatching past it.
func TestMaxInFlightQuota(t *testing.T) {
	p := NewPoolConfig(Config{
		Workers:            4,
		DefaultMaxInFlight: 1,
	})
	defer p.Close()
	var active, maxActive int32
	var all []*Job
	for i := 0; i < 6; i++ {
		j, err := p.Submit(fmt.Sprintf("a-s%d", i), "a", "work", func(ctx context.Context, j *Job) (any, error) {
			n := atomic.AddInt32(&active, 1)
			for {
				m := atomic.LoadInt32(&maxActive)
				if n <= m || atomic.CompareAndSwapInt32(&maxActive, m, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&active, -1)
			return nil, nil
		}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	// Tenant b is not held back by a's quota.
	jb, err := p.Submit("b-s1", "b", "work", noop, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	for _, j := range all {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	if maxActive != 1 {
		t.Errorf("max concurrent jobs of quota-1 tenant = %d, want 1", maxActive)
	}
}

// TestDeadlineShed: a queued job whose deadline expires is shed by the
// dispatcher — StatusShed, context.DeadlineExceeded, never run — while
// jobs without deadlines still run.
func TestDeadlineShed(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	release, _ := gate(t, p, "a")

	ran := false
	doomed, err := p.Submit("a", "", "work", func(ctx context.Context, j *Job) (any, error) {
		ran = true
		return nil, nil
	}, SubmitOptions{Deadline: time.Now().Add(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := p.Submit("a", "", "work", noop, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the deadline lapse while queued
	close(release)

	if err := doomed.Wait(waitCtx(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shed job err = %v, want DeadlineExceeded", err)
	}
	if doomed.Status() != StatusShed {
		t.Errorf("status = %s, want shed", doomed.Status())
	}
	if !doomed.Status().Terminal() {
		t.Error("shed must be terminal")
	}
	if ran {
		t.Error("shed job must never run")
	}
	if err := healthy.Wait(waitCtx(t)); err != nil {
		t.Fatalf("deadline-less job err = %v", err)
	}
	st := p.Stats()
	if st.Shed != 1 || st.Tenants["a"].Shed != 1 {
		t.Errorf("shed counters = %d / %d, want 1 / 1", st.Shed, st.Tenants["a"].Shed)
	}
	if doomed.Info().Deadline == "" {
		t.Error("job info should expose the deadline")
	}
}

// TestRetentionPerSession is the regression test for the terminal-job
// retention bugfix: retention is a per-session window, so one busy
// session churning through jobs can no longer evict another session's
// just-finished job from Get.
func TestRetentionPerSession(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	quiet, err := p.Submit("quiet", "", "work", noop, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := quiet.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	var busy []*Job
	for i := 0; i < DefaultRetainPerSession+1; i++ {
		j, err := p.Submit("busy", "", "work", noop, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
		busy = append(busy, j)
	}
	// The busy session kept only its own last terminal jobs...
	if got := len(p.SessionJobs("busy")); got != DefaultRetainPerSession {
		t.Errorf("busy session retains %d jobs, want %d", got, DefaultRetainPerSession)
	}
	if _, ok := p.Get(busy[0].ID()); ok {
		t.Error("busy session's oldest job should be evicted")
	}
	for _, j := range busy[len(busy)-2:] {
		if _, ok := p.Get(j.ID()); !ok {
			t.Errorf("busy session's recent job %s evicted", j.ID())
		}
	}
	// ...and never touched the quiet session's history (the old global
	// window would have evicted it).
	if _, ok := p.Get(quiet.ID()); !ok {
		t.Error("quiet session's finished job was evicted by another session's churn")
	}
}

// TestReleaseSession: releasing a closed session drops its retained jobs
// immediately and its still-draining job as soon as it finishes, so a
// dead session pins no memory.
func TestReleaseSession(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	finished, err := p.Submit("a", "", "work", noop, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := finished.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	release, draining := gate(t, p, "a")
	p.CancelSession("a")
	p.ReleaseSession("a")
	if _, ok := p.Get(finished.ID()); ok {
		t.Error("released session's retained job still visible")
	}
	close(release)
	if err := draining.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("draining job err = %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := p.Get(draining.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining job of a released session was retained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantStatePruned: a tenant's scheduling state must be pruned
// once its last session is released and its work drained — with the
// identity-tenant default, a stream of short-lived sessions must not
// grow the tenant map (or the Stats payload) without bound. The
// pool-level counters survive the pruning.
func TestTenantStatePruned(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	for i := 0; i < 5; i++ {
		session := fmt.Sprintf("s%d", i)
		j, err := p.Submit(session, "", "work", noop, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
		p.CancelSession(session)
		p.ReleaseSession(session)
	}
	st := p.Stats()
	if len(st.Tenants) != 0 {
		t.Errorf("released sessions left %d tenant entries: %v", len(st.Tenants), st.Tenants)
	}
	if st.Done != 5 {
		t.Errorf("pool-level done = %d, want 5 (must survive tenant pruning)", st.Done)
	}
	// A tenant with a still-pinned session survives.
	j, err := p.Submit("live", "", "work", noop, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Tenants["live"].Done != 1 {
		t.Errorf("live tenant stats = %+v", st.Tenants)
	}
}

// TestCancelSessionCounts pins CancelSession's return value: every
// queued job counts once, the running job exactly once — a second call
// while it winds down reports 0.
func TestCancelSessionCounts(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1})
	defer p.Close()
	release, _ := gate(t, p, "a")
	defer close(release)
	for i := 0; i < 3; i++ {
		if _, err := p.Submit("a", "", "work", noop, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.CancelSession("a"); n != 4 {
		t.Errorf("first CancelSession = %d, want 4 (1 running + 3 queued)", n)
	}
	if n := p.CancelSession("a"); n != 0 {
		t.Errorf("second CancelSession = %d, want 0 (running job already cancelled)", n)
	}
}

func TestStatsSnapshot(t *testing.T) {
	p := NewPoolConfig(Config{Workers: 1, MaxQueued: 50, MaxQueuedPerSession: 10})
	defer p.Close()
	release, _ := gate(t, p, "a")
	if _, err := p.Submit("a", "", "work", noop, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("b", "", "work", noop, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Queued != 2 || st.Running != 1 || st.Workers != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxQueued != 50 || st.MaxQueuedPerSession != 10 {
		t.Errorf("caps in stats = %+v", st)
	}
	if st.Tenants["a"].Queued != 1 || st.Tenants["a"].InFlight != 1 || st.Tenants["b"].Queued != 1 {
		t.Errorf("tenant stats = %+v", st.Tenants)
	}
	ss := p.SessionStats("a")
	if ss.Queued != 1 || ss.Running != 1 || ss.QueueCap != 10 || ss.Tenant != "a" {
		t.Errorf("session stats = %+v", ss)
	}
	close(release)
}

// TestSchedulerOverloadStress is the -race overload test: concurrent
// tenants slam a tiny pool through queue caps and deadlines. Invariants:
// no submission ever blocks, every accepted job reaches a terminal
// state, rejections are queue-full, and the counters add up.
func TestSchedulerOverloadStress(t *testing.T) {
	p := NewPoolConfig(Config{
		Workers:             2,
		MaxQueued:           32,
		MaxQueuedPerSession: 4,
		Weights:             map[string]int{"t0": 3, "t1": 2},
		DefaultMaxInFlight:  1,
	})
	defer p.Close()

	const (
		tenants    = 4
		sessions   = 3
		perSession = 25
	)
	var accepted, rejected, done, shed, cancelled int64
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for si := 0; si < sessions; si++ {
			wg.Add(1)
			go func(ti, si int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ti*100 + si)))
				session := fmt.Sprintf("t%d-s%d", ti, si)
				for k := 0; k < perSession; k++ {
					opts := SubmitOptions{}
					if rng.Intn(3) == 0 {
						opts.Deadline = time.Now().Add(time.Duration(rng.Intn(2)) * time.Millisecond)
					}
					j, err := p.Submit(session, session[:2], "work", func(ctx context.Context, j *Job) (any, error) {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
						return nil, ctx.Err()
					}, opts)
					if err != nil {
						if !errors.Is(err, ErrQueueFull) {
							t.Errorf("unexpected submit error: %v", err)
						}
						atomic.AddInt64(&rejected, 1)
						time.Sleep(200 * time.Microsecond) // simulated client backoff
						continue
					}
					atomic.AddInt64(&accepted, 1)
					err = j.Wait(waitCtx(t))
					switch {
					case err == nil:
						atomic.AddInt64(&done, 1)
					case errors.Is(err, context.DeadlineExceeded):
						atomic.AddInt64(&shed, 1)
					case errors.Is(err, context.Canceled):
						atomic.AddInt64(&cancelled, 1)
					default:
						t.Errorf("unexpected job outcome: %v", err)
					}
				}
			}(ti, si)
		}
	}
	wg.Wait()
	if done+shed+cancelled != accepted {
		t.Errorf("outcomes %d+%d+%d != accepted %d", done, shed, cancelled, accepted)
	}
	st := p.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("pool not drained: %+v", st)
	}
	if st.Done != uint64(done) || st.Shed != uint64(shed) || st.Rejected != uint64(rejected) {
		t.Errorf("counters done=%d shed=%d rejected=%d, want %d/%d/%d",
			st.Done, st.Shed, st.Rejected, done, shed, rejected)
	}
	t.Logf("overload: accepted=%d done=%d shed=%d rejected=%d", accepted, done, shed, rejected)
}
