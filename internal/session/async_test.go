package session

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

func waitJob(t *testing.T, j *jobs.Job) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-j.Done():
		return j.Err()
	case <-ctx.Done():
		t.Fatalf("job %s did not finish", j.ID())
		return nil
	}
}

func TestSubmitSelectAndZoomAsync(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 2}, nil)
	defer m.Shutdown()
	s, err := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, j); err != nil {
		t.Fatal(err)
	}
	if j.Status() != jobs.StatusDone {
		t.Fatalf("status = %s", j.Status())
	}
	var path []int
	_ = s.Do(func(e *core.Explorer) error {
		if len(e.History()) != 2 {
			t.Errorf("history depth = %d, want 2", len(e.History()))
		}
		leaves := e.CurrentMap().Root.Leaves()
		path = leaves[0].Path
		return nil
	})
	j2, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, j2); err != nil {
		t.Fatal(err)
	}
	_ = s.Do(func(e *core.Explorer) error {
		if len(e.History()) != 3 {
			t.Errorf("history depth after zoom = %d, want 3", len(e.History()))
		}
		return nil
	})
}

// TestManagerSubmitClosedSession: submission through the manager must
// refuse sessions that are no longer registered (the submit/close race
// guard).
func TestManagerSubmitClosedSession(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}}); err == nil {
		t.Fatal("submit to a closed session should fail")
	}
	// And a live one still works through the same path.
	s2, _ := openTable(m, smallTable(), core.Options{Seed: 2}, "")
	j, err := m.Submit(s2.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, j); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitUnknownAction(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	if _, err := m.Submit(s.ID, Action{Action: core.Action{Kind: "teleport"}}); !errors.Is(err, ErrBadAction) {
		t.Fatalf("unknown action: %v, want ErrBadAction before queueing", err)
	}
	// A deadline whose duration overflows would wrap into the past and
	// shed the job at once.
	overflow := Action{Action: core.Action{Kind: core.ActionSelect}, DeadlineMS: maxDeadlineMS + 1}
	if _, err := m.Submit(s.ID, overflow); !errors.Is(err, ErrBadAction) {
		t.Fatalf("overflowing deadline: %v, want ErrBadAction before queueing", err)
	}
}

func TestSubmitInvalidThemeFailsJob(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	j, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, j); err == nil {
		t.Fatal("job should fail on invalid theme")
	}
	if j.Status() != jobs.StatusFailed {
		t.Errorf("status = %s", j.Status())
	}
}

// TestCacheHitMetadata: a re-zoom into a previously visited selection
// must be answered by the zoom cache and say so in the job metadata.
func TestCacheHitMetadata(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	if err := waitJob(t, mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})); err != nil {
		t.Fatal(err)
	}
	var path []int
	_ = s.Do(func(e *core.Explorer) error {
		path = e.CurrentMap().Root.Leaves()[0].Path
		return nil
	})
	first := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
	if err := waitJob(t, first); err != nil {
		t.Fatal(err)
	}
	if first.Info().Meta["reuse"] == "mapHit" {
		t.Error("first zoom should not hit the cache")
	}
	_ = s.Do(func(e *core.Explorer) error { return e.Rollback() })
	second := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
	if err := waitJob(t, second); err != nil {
		t.Fatal(err)
	}
	if got := second.Info().Meta["reuse"]; got != "mapHit" {
		t.Errorf("re-zoom into a visited selection reports reuse %v, want mapHit", got)
	}
}

// TestReuseLevelMetadata walks the reuse levels over the wire-visible
// job metadata: a first selection is cold, a zoom inside it is cold too
// (a cache entry holds only its map), and a re-zoom after rollback is a
// map hit.
func TestReuseLevelMetadata(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	sel := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if err := waitJob(t, sel); err != nil {
		t.Fatal(err)
	}
	if got := sel.Info().Meta["reuse"]; got != "cold" {
		t.Errorf("first select reuse = %v, want cold", got)
	}
	var path []int
	_ = s.Do(func(e *core.Explorer) error {
		path = e.CurrentMap().Root.Leaves()[0].Path
		return nil
	})
	zoom := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
	if err := waitJob(t, zoom); err != nil {
		t.Fatal(err)
	}
	if got := zoom.Info().Meta["reuse"]; got != "cold" {
		t.Errorf("first zoom reuse = %v, want cold", got)
	}
	_ = s.Do(func(e *core.Explorer) error { return e.Rollback() })
	re := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
	if err := waitJob(t, re); err != nil {
		t.Fatal(err)
	}
	if got := re.Info().Meta["reuse"]; got != "mapHit" {
		t.Errorf("re-zoom reuse = %v, want mapHit", got)
	}
	if _, ok := re.Info().Meta["cacheHit"]; ok {
		t.Error("a mapHit job reports the retired cacheHit metadata; reuse is the one signal")
	}
}

func mustSubmit(t *testing.T, s *Session, m *Manager, act Action) *jobs.Job {
	t.Helper()
	j, err := m.Submit(s.ID, act)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestManagerQueueFull: a manager configured with queue caps surfaces
// jobs.ErrQueueFull through Submit — the error the HTTP tier turns into
// a 429.
func TestManagerQueueFull(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1, MaxQueuedPerSession: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Pool().Submit(s.ID, "", "block", func(ctx context.Context, j *jobs.Job) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}}); err != nil {
		t.Fatalf("submit filling the queue slot: %v", err)
	}
	_, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("over-cap submit err = %v, want jobs.ErrQueueFull", err)
	}
}

// TestActionDeadlineSheds: an action with a queue deadline that lapses
// while queued is shed by the scheduler, never building a map.
func TestActionDeadlineSheds(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := m.Pool().Submit(s.ID, "", "block", func(ctx context.Context, j *jobs.Job) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started
	doomed, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionSelect}, DeadlineMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := waitJob(t, doomed); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-lapsed job err = %v, want DeadlineExceeded", err)
	}
	if doomed.Status() != jobs.StatusShed {
		t.Errorf("status = %s, want shed", doomed.Status())
	}
	_ = s.Do(func(e *core.Explorer) error {
		if len(e.History()) != 1 {
			t.Errorf("shed build mutated the session (depth %d)", len(e.History()))
		}
		return nil
	})
}

// TestOpenTenantAttribution: sessions opened under a tenant label are
// scheduled and accounted under it.
func TestOpenTenantAttribution(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, err := openTable(m, smallTable(), core.Options{Seed: 1}, "gold")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tenant != "gold" {
		t.Errorf("session tenant = %q", s.Tenant)
	}
	j := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if j.Tenant() != "gold" {
		t.Errorf("job tenant = %q, want gold", j.Tenant())
	}
	if err := waitJob(t, j); err != nil {
		t.Fatal(err)
	}
	if st := m.Pool().Stats(); st.Tenants["gold"].Done != 1 {
		t.Errorf("gold tenant stats = %+v", st.Tenants["gold"])
	}
	if ss := m.Pool().SessionStats(s.ID); ss.Tenant != "gold" {
		t.Errorf("session stats tenant = %q", ss.Tenant)
	}
}

// TestCloseReleasesRetainedJobs: closing a session drops its retained
// terminal jobs from the pool, so dead sessions pin no scheduler memory.
func TestCloseReleasesRetainedJobs(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	j := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if err := waitJob(t, j); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Pool().Get(j.ID()); !ok {
		t.Fatal("finished job should be retained while the session lives")
	}
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Pool().Get(j.ID()); ok {
		t.Error("closed session's retained job still visible in the pool")
	}
}

// TestCloseCancelsSessionJobs is the cancel-on-close contract: closing a
// session must cancel its queued and running jobs so no worker writes
// into it.
func TestCloseCancelsSessionJobs(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	started := make(chan struct{})
	running, err := m.Pool().Submit(s.ID, "", "block", func(ctx context.Context, j *jobs.Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued := mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})
	if err := m.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, running); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job err = %v, want cancelled", err)
	}
	if err := waitJob(t, queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job err = %v, want cancelled", err)
	}
	_ = s.Do(func(e *core.Explorer) error {
		if len(e.History()) != 1 {
			t.Errorf("closed session was written to (depth %d)", len(e.History()))
		}
		return nil
	})
}

// TestEvictIdle drives the TTL sweep with a fake clock: stale idle
// sessions go, fresh ones stay, and a stale session with an in-flight
// job survives until the job is terminal (a client polling a long build
// never touches LastUsed).
func TestEvictIdle(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	now := time.Now()
	m.now = func() time.Time { return now }
	building, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	fresh, _ := openTable(m, smallTable(), core.Options{Seed: 2}, "")
	stale, _ := openTable(m, smallTable(), core.Options{Seed: 3}, "")
	started := make(chan struct{})
	blocked, _ := m.Pool().Submit(building.ID, "", "block", func(ctx context.Context, j *jobs.Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, jobs.SubmitOptions{})
	<-started

	for _, s := range []*Session{building, stale} {
		s.lastUsed.Store(now.Add(-2 * time.Hour).UnixNano())
	}
	fresh.lastUsed.Store(now.Add(-time.Minute).UnixNano())

	if n := m.EvictIdle(time.Hour); n != 1 {
		t.Fatalf("evicted %d, want 1 (only the idle stale session)", n)
	}
	if _, err := m.Get(stale.ID); err == nil {
		t.Error("stale idle session should be gone")
	}
	if _, err := m.Get(fresh.ID); err != nil {
		t.Error("fresh session should survive")
	}
	if _, err := m.Get(building.ID); err != nil {
		t.Error("session with an in-flight job must survive the sweep")
	}

	// Once its work is terminal, the stale building session goes too.
	blocked.Cancel()
	if err := waitJob(t, blocked); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked job err = %v", err)
	}
	if n := m.EvictIdle(time.Hour); n != 1 {
		t.Fatalf("second sweep evicted %d, want 1", n)
	}
	if _, err := m.Get(building.ID); err == nil {
		t.Error("drained stale session should be gone after the second sweep")
	}
}

// TestStartEvictor: the background ticker must sweep without manual
// calls.
func TestStartEvictor(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 1}, nil)
	defer m.Shutdown()
	s, _ := openTable(m, smallTable(), core.Options{Seed: 1}, "")
	s.lastUsed.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	stop := m.StartEvictor(time.Hour, time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("evictor never swept the stale session")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestConcurrentSessionStress drives parallel zoom/select jobs, direct
// rollbacks and state reads against one session through the scheduler —
// the -race coverage for the async session surface. Individual actions
// may fail (stale builds, empty history); the invariants are no data
// races, no panics, and a session that still navigates afterwards.
func TestConcurrentSessionStress(t *testing.T) {
	m := NewManagerObs(jobs.Config{Workers: 4}, nil)
	defer m.Shutdown()
	s, err := openTable(m, smallTable(), core.Options{Seed: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(t, mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var done, failed int32
	worker := func(seed int64, actions int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < actions; i++ {
			switch rng.Intn(4) {
			case 0: // async select/project
				kind := core.ActionSelect
				if rng.Intn(2) == 0 {
					kind = core.ActionProject
				}
				j, err := m.Submit(s.ID, Action{Action: core.Action{Kind: kind, Theme: 0}})
				if err != nil {
					continue
				}
				if waitJob(t, j) == nil {
					atomic.AddInt32(&done, 1)
				} else {
					atomic.AddInt32(&failed, 1)
				}
			case 1: // async zoom into whatever is current
				var path []int
				_ = s.Do(func(e *core.Explorer) error {
					if mp := e.CurrentMap(); mp != nil {
						if leaves := mp.Root.Leaves(); len(leaves) > 0 {
							path = leaves[rng.Intn(len(leaves))].Path
						}
					}
					return nil
				})
				if path == nil {
					continue
				}
				j, err := m.Submit(s.ID, Action{Action: core.Action{Kind: core.ActionZoom, Path: path}})
				if err != nil {
					continue
				}
				if waitJob(t, j) == nil {
					atomic.AddInt32(&done, 1)
				} else {
					atomic.AddInt32(&failed, 1)
				}
			case 2: // direct rollback
				_ = s.Do(func(e *core.Explorer) error { return e.Rollback() })
			default: // state reads
				_ = s.Do(func(e *core.Explorer) error {
					_ = e.State()
					_ = e.History()
					_ = e.Query()
					return nil
				})
			}
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go worker(int64(w+10), 10)
	}
	wg.Wait()

	// The session must still work.
	if err := waitJob(t, mustSubmit(t, s, m, Action{Action: core.Action{Kind: core.ActionSelect, Theme: 0}})); err != nil {
		t.Fatalf("session broken after stress: %v", err)
	}
	t.Logf("stress: %d jobs done, %d failed benignly", done, failed)
}
