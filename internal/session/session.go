// Package session implements Blaeu's session manager — the middle tier of
// the paper's architecture (Fig. 4), where NodeJS "manages the sessions
// and relays the maps to the clients". It provides a concurrency-safe
// registry of exploration sessions, each wrapping one core.Explorer, an
// asynchronous job scheduler (internal/jobs) that map builds are
// submitted to so one large clustering never stalls a session's lock
// (see Manager.Submit), and a TTL sweep that evicts abandoned sessions
// (EvictIdle / StartEvictor).
package session

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Session is one user's exploration session.
type Session struct {
	// ID is the registry key.
	ID string
	// Tenant is the fairness key the session's jobs are scheduled under
	// ("" = the session is its own tenant). Set at open time.
	Tenant string
	// Explorer is the underlying exploration engine. Callers must hold
	// the session lock (Do) for any interaction.
	Explorer *core.Explorer
	// Created is the open time.
	Created time.Time

	seq  int           // creation order; ID is its formatted form
	data *core.Dataset // the dataset the session was opened on
	// lastUsed is the latest Do in Unix nanoseconds — atomic, not under
	// mu: the idle sweep reads it holding the registry lock and must not
	// wait there for a click in flight (a filter's scan runs inside Do).
	lastUsed atomic.Int64

	mu sync.Mutex
}

// LastUsed returns when the session's lock was last taken through Do
// (its open time before the first).
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Do runs f while holding the session's lock; all explorer access must go
// through it (core.Explorer is not concurrency-safe).
func (s *Session) Do(f func(e *core.Explorer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUsed.Store(time.Now().UnixNano())
	return f(s.Explorer)
}

// Manager is a registry of sessions plus the job scheduler their
// asynchronous map builds run on.
type Manager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	// datasets are the datasets sessions were opened on since a sweep
	// last released them (see EvictIdle).
	datasets map[*core.Dataset]bool
	nextID   int
	now      func() time.Time
	pool     *jobs.Pool
	tel      *obs.Telemetry
}

// NewManagerObs returns an empty session registry whose scheduler runs
// under the given configuration — worker width and queue caps (see
// jobs.Config); the zero Config runs one job worker per core
// (cores.Width()) with no backpressure limits. Tenant attribution is the
// tenant argument of Open: every job of the session is submitted under it.
//
// tel is the telemetry plane: the scheduler's counters land in its
// registry, every build job records a per-stage trace timed by its
// clock, and builds slower than tel.SlowBuild are logged through its
// logger with their stage breakdown. A nil tel means a fresh registry
// the server can mount at /metrics, the wall clock and no logging.
func NewManagerObs(cfg jobs.Config, tel *obs.Telemetry) *Manager {
	if tel == nil {
		tel = &obs.Telemetry{Registry: obs.NewRegistry()}
	}
	cfg.Obs = tel.Reg()
	return &Manager{
		sessions: make(map[string]*Session),
		datasets: make(map[*core.Dataset]bool),
		now:      time.Now,
		pool:     jobs.NewPoolConfig(cfg),
		tel:      tel,
	}
}

// Pool returns the manager's job scheduler.
func (m *Manager) Pool() *jobs.Pool { return m.pool }

// Telemetry returns the manager's telemetry plane (may be nil; the
// *obs.Telemetry accessors tolerate that).
func (m *Manager) Telemetry() *obs.Telemetry { return m.tel }

// Open creates a session exploring the given dataset, whose options and
// themes it shares (core.Dataset.Open). Its builds run on the
// manager's job workers, and their fan-out borrows only the cores no
// running job holds (internal/cores). A non-empty tenant label
// schedules the session's jobs (round-robin dispatch, per-tenant
// accounting) under that tenant; with an empty one the session stands
// alone as its own tenant. This is where a deployment that derives the
// tenant server-side (from an authenticated identity) hands it in.
func (m *Manager) Open(d *core.Dataset, tenant string) *Session {
	e := d.Open()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	s := &Session{
		ID:       fmt.Sprintf("s%04d", m.nextID),
		Tenant:   tenant,
		Explorer: e,
		Created:  m.now(),
		seq:      m.nextID,
		data:     d,
	}
	s.lastUsed.Store(s.Created.UnixNano())
	m.sessions[s.ID] = s
	m.datasets[d] = true
	return s
}

// Get returns the session with the given ID.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("session: no session %q", id)
	}
	return s, nil
}

// Close removes a session and cancels its scheduled work: queued jobs
// are dropped and the running build's context is cancelled, so no worker
// keeps computing for — or applies a result into — a closed session.
// The scheduler's retained terminal jobs of the session are released so
// a dead session pins no memory.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	_, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("session: no session %q", id)
	}
	m.releaseSession(id)
	return nil
}

// releaseSession cancels and releases a removed session's scheduler
// state (shared by Close and EvictIdle).
func (m *Manager) releaseSession(id string) {
	m.pool.CancelSession(id)
	m.pool.ReleaseSession(id)
}

// Shutdown stops the scheduler: every queued and running job is
// cancelled and the workers are joined. Sessions remain readable.
func (m *Manager) Shutdown() { m.pool.Close() }

// List returns the open session IDs in creation order. The sessions
// are copied under the registry lock and sorted outside it.
func (m *Manager) List() []string {
	m.mu.Lock()
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	slices.SortFunc(open, func(a, b *Session) int { return a.seq - b.seq })
	out := make([]string, len(open))
	for i, s := range open {
		out[i] = s.ID
	}
	return out
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// EvictIdle removes sessions unused for longer than maxIdle and returns
// how many were evicted — the TTL sweep that keeps abandoned explorers
// from leaking. A session with queued or running jobs is never evicted,
// however old its LastUsed: a client polling a long build touches only
// the job endpoints, not the session, so in-flight work — not the
// LastUsed bump at prepare/apply — is what marks a session active.
// Jobs submitted in the race window between the check and the removal
// are still cancelled on the way out. The sweep takes no session's lock,
// so a click in flight never parks the registry behind itself.
//
// The sweep then releases the spent distance matrices of every dataset
// left with no open session, evicted or closed (core.Dataset.Release),
// so an idle server gives them back; between sweeps a dataset's next
// session reuses them.
func (m *Manager) EvictIdle(maxIdle time.Duration) int {
	m.mu.Lock()
	cutoff := m.now().Add(-maxIdle)
	var evicted []string
	for id, s := range m.sessions {
		if s.LastUsed().Before(cutoff) && m.pool.InFlight(id) == 0 {
			delete(m.sessions, id)
			evicted = append(evicted, id)
		}
	}
	open := make(map[*core.Dataset]bool, len(m.datasets))
	for _, s := range m.sessions {
		open[s.data] = true
	}
	var idle []*core.Dataset
	for d := range m.datasets {
		if !open[d] {
			delete(m.datasets, d)
			idle = append(idle, d)
		}
	}
	m.mu.Unlock()
	for _, id := range evicted {
		m.releaseSession(id)
	}
	for _, d := range idle {
		d.Release()
	}
	return len(evicted)
}

// StartEvictor runs EvictIdle(maxIdle) every interval on a background
// ticker until the returned stop function is called. Stop is
// idempotent. Non-positive intervals are clamped to one second
// (time.NewTicker panics below 1ns, and sub-second sweeps buy nothing).
func (m *Manager) StartEvictor(maxIdle, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.EvictIdle(maxIdle)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
