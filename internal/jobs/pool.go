package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultRetainPerSession bounds how many terminal jobs the pool keeps
// per session for status lookups before the session's oldest are
// forgotten. Retention is per session — one busy session can never
// evict another session's just-finished jobs.
const DefaultRetainPerSession = 64

// ErrQueueFull is the sentinel error for admission-control rejections:
// Submit refuses the job because a queue cap (per-session or pool-wide)
// is reached. Match with errors.Is; the concrete *QueueFullError carries
// which cap was hit. The HTTP tier maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("jobs: queue full")

// Queue-cap scopes reported by QueueFullError.
const (
	ScopeSession = "session" // Config.MaxQueuedPerSession reached
	ScopePool    = "pool"    // Config.MaxQueued reached
)

// QueueFullError describes an admission-control rejection: which cap
// (Scope), for which key (the session or tenant), at what limit. It
// unwraps to ErrQueueFull.
type QueueFullError struct {
	Scope string // ScopeSession or ScopePool
	Key   string // the session (ScopeSession) or tenant (ScopePool)
	Limit int    // the configured cap that was reached
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: %s queue full (%s %q at cap %d)", e.Scope, e.Scope, e.Key, e.Limit)
}

// Unwrap makes errors.Is(err, ErrQueueFull) match.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// Config tunes the scheduler: worker width, admission control (queue
// caps), tenant attribution and weighted fairness, and the per-tenant
// concurrency quota. The zero value is a pool with one worker per CPU,
// unbounded queues, every session its own tenant at weight 1 — exactly
// the pre-backpressure scheduler.
type Config struct {
	// Workers is the number of job workers (<= 0 means runtime.NumCPU()).
	Workers int
	// MaxQueued caps the total number of queued jobs across all sessions;
	// Submit beyond it fails with a pool-scoped QueueFullError
	// (0 = unbounded). Running jobs do not count against it.
	MaxQueued int
	// MaxQueuedPerSession caps the queued jobs of one session; Submit
	// beyond it fails with a session-scoped QueueFullError (0 = unbounded).
	MaxQueuedPerSession int
	// Tenant maps a session key to its tenant — the unit of weighted
	// fairness and quota accounting. nil means every session is its own
	// tenant. The hook is called under the pool lock and must not call
	// back into the pool. A session's tenant is pinned at its first
	// submission and reused while the session has work or retained jobs.
	Tenant func(session string) string
	// Weights assigns weighted-round-robin dispatch weights per tenant: a
	// weight-w tenant is offered up to w dispatches per scheduling round,
	// so under contention it completes ~w× the jobs of a weight-1 tenant.
	// Tenants not listed (or listed at <= 0) get weight 1.
	Weights map[string]int
	// DefaultMaxInFlight caps how many jobs of one tenant run
	// concurrently (<= 0 means unbounded); queued jobs beyond the cap
	// wait without blocking other tenants' dispatch.
	DefaultMaxInFlight int
	// Obs receives the scheduler's metrics (outcome counters, queue
	// depth gauges, queue-wait and run-time histograms). nil is valid:
	// the pool then counts into detached handles, so Stats keeps
	// working without a registry.
	Obs *obs.Registry
}

// SubmitOptions carries the optional per-job scheduling knobs of
// Submit.
type SubmitOptions struct {
	// Deadline, when non-zero, is the submit-to-dispatch deadline: a job
	// still queued past it is shed (StatusShed, context.DeadlineExceeded)
	// by the dispatcher instead of ever occupying a worker. The deadline
	// does not bound the job's run time once dispatched.
	Deadline time.Time
}

// tenantState is one tenant's scheduling and accounting state. All
// fields are guarded by the pool lock. The state lives as long as the
// tenant has pinned sessions or work in flight and is pruned afterwards
// (see maybeDropTenantLocked), so an endless stream of one-shot sessions
// — each its own tenant by default — cannot grow the map unboundedly;
// per-tenant counters therefore cover the tenant's current lifetime,
// while the pool-level counters in Stats are forever.
type tenantState struct {
	weight      int      // WRR weight (>= 1)
	maxInFlight int      // concurrent-running cap (0 = unbounded)
	sessions    []string // tenant-local subring: sessions with queued work
	snext       int      // subring cursor
	burst       int      // dispatches consumed in the current WRR visit
	queued      int      // queued jobs across the tenant's sessions
	inFlight    int      // running jobs
	pins        int      // sessions pinned to this tenant (sessionTenant)

	done, failed, cancelled, shed, rejected uint64

	// Labeled registry counters mirroring the plain counters above.
	// Pruning the tenant drops the plain counters (Stats covers the
	// current lifetime) but the registry series persist — get-or-create
	// hands the same handles back if the tenant returns, so
	// blaeu_tenant_jobs_total is cumulative the way Prometheus expects.
	mDone, mFailed, mCancelled, mShed, mRejected *obs.Counter
}

// Pool is a bounded worker pool dispatching jobs FIFO per session, with
// weighted round-robin fairness across tenants and round-robin across a
// tenant's sessions (see the package comment for the full scheduling
// contract, including backpressure and deadline shedding).
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg     Config
	workers int

	queues  map[string][]*Job // per-session FIFO of queued jobs
	running map[string]*Job   // session -> its currently running job
	jobs    map[string]*Job   // every known job by ID

	tenants       map[string]*tenantState
	ring          []string          // tenants with queued work, WRR order
	next          int               // ring cursor
	sessionTenant map[string]string // pinned tenant per session with work

	doneBySession map[string][]string // terminal job IDs per session, oldest first
	released      map[string]struct{} // sessions dropped by the session tier, draining

	queuedTotal int
	// Pool-lifetime outcome counters, held as registry handles so the
	// scheduler's counts and /metrics are one source of truth
	// (tenantState counters are pruned with their tenant; these never
	// reset). With no registry configured the handles are detached but
	// still count.
	done, failed, cancelled, shedTotal, rejected *obs.Counter
	queueWait, runTime                           *obs.Histogram
	nextID                                       int
	closed                                       bool

	wg      sync.WaitGroup
	compute chan struct{} // fan-out lane for RunTasks
}

// NewPoolConfig starts a pool under the given scheduling configuration;
// the zero Config means runtime.NumCPU() job workers and no backpressure
// limits.
func NewPoolConfig(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	p := &Pool{
		cfg:           cfg,
		workers:       cfg.Workers,
		queues:        make(map[string][]*Job),
		running:       make(map[string]*Job),
		jobs:          make(map[string]*Job),
		tenants:       make(map[string]*tenantState),
		sessionTenant: make(map[string]string),
		doneBySession: make(map[string][]string),
		released:      make(map[string]struct{}),
		compute:       make(chan struct{}, cfg.Workers),
	}
	reg := cfg.Obs
	const outcomeHelp = "Jobs by terminal outcome."
	p.done = reg.Counter("blaeu_jobs_total", outcomeHelp, obs.Labels{"outcome": "done"})
	p.failed = reg.Counter("blaeu_jobs_total", outcomeHelp, obs.Labels{"outcome": "failed"})
	p.cancelled = reg.Counter("blaeu_jobs_total", outcomeHelp, obs.Labels{"outcome": "cancelled"})
	p.shedTotal = reg.Counter("blaeu_jobs_total", outcomeHelp, obs.Labels{"outcome": "shed"})
	p.rejected = reg.Counter("blaeu_jobs_total", outcomeHelp, obs.Labels{"outcome": "rejected"})
	p.queueWait = reg.Histogram("blaeu_job_queue_wait_seconds",
		"Submit-to-dispatch wait (shed jobs: submit-to-shed).", nil, nil)
	p.runTime = reg.Histogram("blaeu_job_run_seconds",
		"Dispatch-to-finish run time of jobs that reached a worker.", nil, nil)
	gQueued := reg.Gauge("blaeu_jobs_queued", "Jobs currently queued across all sessions.", nil)
	gRunning := reg.Gauge("blaeu_jobs_running", "Jobs currently running.", nil)
	reg.Gauge("blaeu_jobs_workers", "Configured worker parallelism.", nil).Set(float64(cfg.Workers))
	reg.RegisterCollector(func() {
		p.mu.Lock()
		q, r := p.queuedTotal, len(p.running)
		p.mu.Unlock()
		gQueued.Set(float64(q))
		gRunning.Set(float64(r))
	})
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// Submit queues fn as a job under the given session key and returns its
// handle immediately. Jobs of one session run FIFO, one at a time. Under
// overload (a queue cap reached) it fails with ErrQueueFull instead of
// queueing unboundedly. opts carries the per-job scheduling options
// (deadline); the zero value sets none.
func (p *Pool) Submit(session, kind string, fn Func, opts SubmitOptions) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("jobs: pool is closed")
	}
	tenant, pinned := p.sessionTenant[session]
	if !pinned {
		tenant = p.tenantName(session)
	}
	t := p.tenantFor(tenant)
	if cap := p.cfg.MaxQueuedPerSession; cap > 0 && len(p.queues[session]) >= cap {
		t.rejected++
		t.mRejected.Inc()
		p.rejected.Inc()
		p.maybeDropTenantLocked(tenant)
		return nil, &QueueFullError{Scope: ScopeSession, Key: session, Limit: cap}
	}
	if cap := p.cfg.MaxQueued; cap > 0 && p.queuedTotal >= cap {
		t.rejected++
		t.mRejected.Inc()
		p.rejected.Inc()
		p.maybeDropTenantLocked(tenant)
		return nil, &QueueFullError{Scope: ScopePool, Key: tenant, Limit: cap}
	}
	if !pinned {
		p.sessionTenant[session] = tenant
		t.pins++
	}
	delete(p.released, session) // the session is live again
	p.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		pool:     p,
		id:       fmt.Sprintf("j%06d", p.nextID),
		session:  session,
		tenant:   tenant,
		kind:     kind,
		fn:       fn,
		ctx:      ctx,
		cancelFn: cancel,
		deadline: opts.Deadline,
		done:     make(chan struct{}),
		status:   StatusQueued,
		meta:     make(map[string]any),
		created:  time.Now(),
	}
	p.jobs[j.id] = j
	if len(p.queues[session]) == 0 {
		t.sessions = append(t.sessions, session)
	}
	if t.queued == 0 {
		p.ring = append(p.ring, tenant)
	}
	p.queues[session] = append(p.queues[session], j)
	t.queued++
	p.queuedTotal++
	p.cond.Signal()
	return j, nil
}

// tenantName resolves the tenant of a session through the configured
// hook (identity when none is set).
func (p *Pool) tenantName(session string) string {
	if p.cfg.Tenant == nil {
		return session
	}
	return p.cfg.Tenant(session)
}

// tenantFor returns the tenant's scheduling state, creating it with its
// configured weight and in-flight cap on first sight.
func (p *Pool) tenantFor(name string) *tenantState {
	if t, ok := p.tenants[name]; ok {
		return t
	}
	w := p.cfg.Weights[name]
	if w <= 0 {
		w = 1
	}
	t := &tenantState{weight: w, maxInFlight: max(p.cfg.DefaultMaxInFlight, 0)}
	const help = "Jobs by tenant and terminal outcome."
	reg := p.cfg.Obs
	t.mDone = reg.Counter("blaeu_tenant_jobs_total", help, obs.Labels{"tenant": name, "outcome": "done"})
	t.mFailed = reg.Counter("blaeu_tenant_jobs_total", help, obs.Labels{"tenant": name, "outcome": "failed"})
	t.mCancelled = reg.Counter("blaeu_tenant_jobs_total", help, obs.Labels{"tenant": name, "outcome": "cancelled"})
	t.mShed = reg.Counter("blaeu_tenant_jobs_total", help, obs.Labels{"tenant": name, "outcome": "shed"})
	t.mRejected = reg.Counter("blaeu_tenant_jobs_total", help, obs.Labels{"tenant": name, "outcome": "rejected"})
	p.tenants[name] = t
	return t
}

// Get looks up a job by ID. Terminal jobs stay visible until the
// session's retention window (DefaultRetainPerSession) pushes them out
// or the session is released.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// SessionJobs returns every known job of the session (retained terminal
// ones, the running one and the queued ones) in submit order. It reads
// only the pool's per-session indexes, never the other sessions' jobs.
func (p *Pool) SessionJobs(session string) []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	done, queued := p.doneBySession[session], p.queues[session]
	out := make([]*Job, 0, len(done)+1+len(queued))
	for _, id := range done {
		out = append(out, p.jobs[id])
	}
	if j := p.running[session]; j != nil {
		out = append(out, j)
	}
	out = append(out, queued...)
	// A job cancelled or shed in the queue turns terminal ahead of its
	// elders, so the concatenation is not yet in submit order.
	// Shorter IDs first, then lexicographic: numeric submit order even
	// after the zero-padded counter grows past its width.
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].id) != len(out[b].id) {
			return len(out[a].id) < len(out[b].id)
		}
		return out[a].id < out[b].id
	})
	return out
}

// InFlight reports how many of the session's jobs are queued or
// running. The session tier's idle evictor consults it so a session
// with work in flight never counts as abandoned.
func (p *Pool) InFlight(session string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.queues[session])
	if p.running[session] != nil {
		n++
	}
	return n
}

// CancelSession cancels every queued job of the session immediately and
// signals cancellation to its running job, if any. It returns how many
// jobs were affected: each queued job counts once, the running job once
// — and only if it was not already cancelled, so repeated calls while
// the same job winds down do not recount it. Manager.Close calls this so
// no worker ever writes into a closed session.
func (p *Pool) CancelSession(session string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	if q := p.queues[session]; len(q) > 0 {
		delete(p.queues, session)
		tenant := q[0].tenant
		t := p.tenants[tenant]
		p.dropSessionLocked(t, session)
		t.queued -= len(q)
		p.queuedTotal -= len(q)
		if t.queued == 0 {
			p.dropTenantLocked(tenant)
		}
		for _, j := range q {
			j.cancelFn()
			p.finishLocked(j, nil, context.Canceled)
			n++
		}
	}
	if j := p.running[session]; j != nil && j.ctx.Err() == nil {
		j.cancelFn()
		n++
	}
	return n
}

// ReleaseSession drops the session's retained terminal jobs and its
// tenant pin — the memory-hygiene hook the session tier calls after
// closing a session (after CancelSession). Work still draining (a
// cancelled build that has not returned yet) is dropped from retention
// the moment it finishes, and a tenant whose last session is released
// is pruned once its work drains.
func (p *Pool) ReleaseSession(session string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.doneBySession[session] {
		delete(p.jobs, id)
	}
	delete(p.doneBySession, session)
	if tenant, pinned := p.sessionTenant[session]; pinned {
		delete(p.sessionTenant, session)
		if t := p.tenants[tenant]; t != nil {
			t.pins--
			p.maybeDropTenantLocked(tenant)
		}
	}
	if len(p.queues[session]) > 0 || p.running[session] != nil {
		p.released[session] = struct{}{}
	}
}

// maybeDropTenantLocked prunes a tenant's state once nothing references
// it: no pinned sessions, no queued work, nothing running. Its lifetime
// counters are already rolled up at pool level, so nothing observable is
// lost — and a stream of short-lived identity tenants cannot grow
// p.tenants (or the Stats payload) without bound.
func (p *Pool) maybeDropTenantLocked(name string) {
	if t := p.tenants[name]; t != nil && t.pins == 0 && t.queued == 0 && t.inFlight == 0 {
		delete(p.tenants, name)
	}
}

// Close cancels all queued and running jobs, stops the workers and waits
// for them to exit. Submit fails afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for s, q := range p.queues {
		delete(p.queues, s)
		for _, j := range q {
			j.cancelFn()
			p.finishLocked(j, nil, context.Canceled)
		}
	}
	for _, t := range p.tenants {
		t.sessions, t.snext, t.queued, t.burst = nil, 0, 0, 0
	}
	p.ring, p.next, p.queuedTotal = nil, 0, 0
	for _, j := range p.running {
		j.cancelFn()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// RunTasks executes a batch of independent tasks, fanning them out over
// the pool's compute lane, and returns when all are done. It implements
// cluster.TaskRunner, so CLARA's per-sample PAM runs share the pool's
// worker budget. Tasks that cannot grab a compute slot run on the
// caller's goroutine (caller-runs), which guarantees progress even when
// every slot is busy — nested fan-out from inside a job can never
// deadlock.
func (p *Pool) RunTasks(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		select {
		case p.compute <- struct{}{}:
			wg.Add(1)
			go func(task func()) {
				defer func() {
					<-p.compute
					wg.Done()
				}()
				task()
			}(task)
		default:
			task()
		}
	}
	wg.Wait()
}

// TenantStats is one tenant's slice of a Stats snapshot.
type TenantStats struct {
	Weight      int    `json:"weight"`
	MaxInFlight int    `json:"maxInFlight,omitempty"`
	Queued      int    `json:"queued"`
	InFlight    int    `json:"inFlight"`
	Done        uint64 `json:"done"`
	Failed      uint64 `json:"failed"`
	Cancelled   uint64 `json:"cancelled"`
	Shed        uint64 `json:"shed"`
	Rejected    uint64 `json:"rejected"`
}

// Stats is a point-in-time snapshot of the scheduler: queue depths,
// running jobs, the configured caps, pool-lifetime outcome counters and
// the per-tenant breakdown. Served at GET /api/jobs/stats. Tenants
// covers only live tenants (pinned sessions or work in flight) — a
// tenant's entry, including its counters, is pruned when its last
// session is released; the pool-level counters never reset.
type Stats struct {
	Workers             int    `json:"workers"`
	Queued              int    `json:"queued"`
	Running             int    `json:"running"`
	MaxQueued           int    `json:"maxQueued,omitempty"`
	MaxQueuedPerSession int    `json:"maxQueuedPerSession,omitempty"`
	Done                uint64 `json:"done"`
	Failed              uint64 `json:"failed"`
	Cancelled           uint64 `json:"cancelled"`
	Shed                uint64 `json:"shed"`
	Rejected            uint64 `json:"rejected"`
	// AvgQueueWaitMs / AvgRunMs are pool-lifetime means derived from
	// the queue-wait and run-time histograms (the same series /metrics
	// exports with full distributions).
	AvgQueueWaitMs float64                `json:"avgQueueWaitMs,omitempty"`
	AvgRunMs       float64                `json:"avgRunMs,omitempty"`
	Tenants        map[string]TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots the scheduler under the pool lock.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Workers:             p.workers,
		Queued:              p.queuedTotal,
		Running:             len(p.running),
		MaxQueued:           p.cfg.MaxQueued,
		MaxQueuedPerSession: p.cfg.MaxQueuedPerSession,
		Done:                p.done.Value(),
		Failed:              p.failed.Value(),
		Cancelled:           p.cancelled.Value(),
		Shed:                p.shedTotal.Value(),
		Rejected:            p.rejected.Value(),
	}
	if n := p.queueWait.Count(); n > 0 {
		st.AvgQueueWaitMs = p.queueWait.Sum() / float64(n) * 1e3
	}
	if n := p.runTime.Count(); n > 0 {
		st.AvgRunMs = p.runTime.Sum() / float64(n) * 1e3
	}
	if len(p.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(p.tenants))
	}
	for name, t := range p.tenants {
		st.Tenants[name] = TenantStats{
			Weight:      t.weight,
			MaxInFlight: t.maxInFlight,
			Queued:      t.queued,
			InFlight:    t.inFlight,
			Done:        t.done,
			Failed:      t.failed,
			Cancelled:   t.cancelled,
			Shed:        t.shed,
			Rejected:    t.rejected,
		}
	}
	return st
}

// SessionStats is the scheduler's view of one session, embedded in
// session state responses: its tenant, current queue depth against the
// cap, and whether a job is running.
type SessionStats struct {
	Tenant   string `json:"tenant,omitempty"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	QueueCap int    `json:"queueCap,omitempty"`
}

// SessionStats snapshots the scheduler state of one session.
func (p *Pool) SessionStats(session string) SessionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	tenant, ok := p.sessionTenant[session]
	if !ok {
		tenant = p.tenantName(session)
	}
	st := SessionStats{
		Tenant:   tenant,
		Queued:   len(p.queues[session]),
		QueueCap: p.cfg.MaxQueuedPerSession,
	}
	if p.running[session] != nil {
		st.Running = 1
	}
	return st
}

// --- internals (all require p.mu unless noted) ---

// worker is one dispatch loop: pick the next fair job, run it, publish
// the outcome, repeat.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return
		}
		j := p.popLocked()
		if j == nil {
			p.cond.Wait()
			continue
		}
		j.status = StatusRunning
		j.started = time.Now()
		p.running[j.session] = j
		p.mu.Unlock()

		res, err := runJob(j)

		p.mu.Lock()
		delete(p.running, j.session)
		if t := p.tenants[j.tenant]; t != nil {
			t.inFlight--
		}
		p.finishLocked(j, res, err)
		p.maybeDropTenantLocked(j.tenant)
		// Finishing may unblock the session's next queued job — or a
		// tenant that was at its in-flight cap.
		p.cond.Broadcast()
	}
}

// runJob executes the job function, converting panics into errors so a
// bad build can never take a worker down. Runs without the pool lock.
func runJob(j *Job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job %s (%s) panicked: %v", j.id, j.kind, r)
		}
	}()
	return j.fn(j.ctx, j)
}

// popLocked dequeues the next dispatchable job under the weighted
// round-robin contract: visit the tenant at the ring cursor; if it is
// under its in-flight cap, take the FIFO head of its next eligible
// session (shedding expired queued jobs on the way); let the tenant keep
// the cursor for up to weight consecutive dispatches (its WRR burst)
// before advancing. Tenants with nothing dispatchable are skipped
// without consuming their burst budget.
func (p *Pool) popLocked() *Job {
	now := time.Now()
	misses := 0
	for len(p.ring) > 0 && misses < len(p.ring) {
		name := p.ring[p.next%len(p.ring)]
		t := p.tenants[name]
		var j *Job
		if t.maxInFlight <= 0 || t.inFlight < t.maxInFlight {
			j = p.popTenantLocked(t, now)
		}
		if t.queued == 0 {
			// Shedding and/or the dispatch drained the tenant.
			p.dropTenantLocked(name)
			t.burst = 0
			if j == nil {
				continue // ring shrank; the miss bound tightened with it
			}
		}
		if j != nil {
			t.inFlight++
			t.burst++
			if t.burst >= t.weight {
				t.burst = 0
				p.advanceLocked()
			}
			return j
		}
		t.burst = 0
		p.advanceLocked()
		misses++
	}
	return nil
}

// popTenantLocked dequeues the next runnable job of one tenant:
// round-robin over its sessions with queued work, skipping sessions
// whose job is running (per-session serialization) and shedding expired
// queue heads before they can reach a worker.
func (p *Pool) popTenantLocked(t *tenantState, now time.Time) *Job {
	misses := 0
	for len(t.sessions) > 0 && misses < len(t.sessions) {
		pos := t.snext % len(t.sessions)
		s := t.sessions[pos]
		q := p.queues[s]
		for len(q) > 0 && q[0].expired(now) {
			shed := q[0]
			q = q[1:]
			t.queued--
			p.queuedTotal--
			p.shedLocked(shed)
		}
		if len(q) == 0 {
			delete(p.queues, s)
			t.removeSession(pos)
			continue // shrank the subring; the miss bound tightened
		}
		p.queues[s] = q
		if p.running[s] != nil {
			t.snext = (pos + 1) % len(t.sessions)
			misses++
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(p.queues, s)
			t.removeSession(pos)
		} else {
			p.queues[s] = q[1:]
			t.snext = (pos + 1) % len(t.sessions)
		}
		t.queued--
		p.queuedTotal--
		return j
	}
	return nil
}

// removeSession drops the session at pos from the tenant's subring,
// keeping the cursor pointed at the same next session.
func (t *tenantState) removeSession(pos int) {
	t.sessions = append(t.sessions[:pos], t.sessions[pos+1:]...)
	if pos < t.snext {
		t.snext--
	}
	if len(t.sessions) == 0 {
		t.snext = 0
	} else {
		t.snext %= len(t.sessions)
	}
}

// advanceLocked moves the tenant-ring cursor to the next tenant.
func (p *Pool) advanceLocked() {
	if len(p.ring) > 0 {
		p.next = (p.next + 1) % len(p.ring)
	} else {
		p.next = 0
	}
}

// dropTenantLocked removes a tenant from the WRR ring, keeping the
// cursor pointed at the same next tenant.
func (p *Pool) dropTenantLocked(name string) {
	for i, s := range p.ring {
		if s != name {
			continue
		}
		p.ring = append(p.ring[:i], p.ring[i+1:]...)
		if i < p.next {
			p.next--
		}
		if len(p.ring) == 0 {
			p.next = 0
		} else {
			p.next %= len(p.ring)
		}
		return
	}
}

// dropSessionLocked removes a session from its tenant's subring.
func (p *Pool) dropSessionLocked(t *tenantState, session string) {
	for i, s := range t.sessions {
		if s == session {
			t.removeSession(i)
			return
		}
	}
}

// cancel implements Job.Cancel.
func (p *Pool) cancel(j *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch j.status {
	case StatusQueued:
		q := p.queues[j.session]
		for i, qj := range q {
			if qj != j {
				continue
			}
			t := p.tenants[j.tenant]
			if len(q) == 1 {
				delete(p.queues, j.session)
				p.dropSessionLocked(t, j.session)
			} else {
				p.queues[j.session] = append(append([]*Job(nil), q[:i]...), q[i+1:]...)
			}
			t.queued--
			p.queuedTotal--
			if t.queued == 0 {
				p.dropTenantLocked(j.tenant)
			}
			break
		}
		j.cancelFn()
		p.finishLocked(j, nil, context.Canceled)
		return true
	case StatusRunning:
		j.cancelFn()
		return true
	default:
		return false
	}
}

// expired reports whether the job's queue deadline has passed.
func (j *Job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}

// shedLocked moves a still-queued job whose deadline expired straight to
// StatusShed: the job never occupies a worker and Wait returns
// context.DeadlineExceeded. The caller has already removed it from its
// session queue and adjusted the queue counters.
func (p *Pool) shedLocked(j *Job) {
	j.finished = time.Now()
	j.status = StatusShed
	j.err = context.DeadlineExceeded
	close(j.done)
	j.cancelFn()
	j.fn = nil
	if t := p.tenants[j.tenant]; t != nil {
		t.shed++
		t.mShed.Inc()
	}
	p.shedTotal.Inc()
	// A shed job waited its whole life: submit to shed.
	p.queueWait.Observe(j.finished.Sub(j.created).Seconds())
	p.retainLocked(j)
}

// finishLocked moves a job to its terminal state and publishes the
// outcome: Done on success, Cancelled when its context was cancelled,
// Failed otherwise.
func (p *Pool) finishLocked(j *Job, res any, err error) {
	j.finished = time.Now()
	t := p.tenants[j.tenant]
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		j.progress = 1
		p.done.Inc()
		if t != nil {
			t.done++
			t.mDone.Inc()
		}
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.status = StatusCancelled
		j.err = err
		p.cancelled.Inc()
		if t != nil {
			t.cancelled++
			t.mCancelled.Inc()
		}
	default:
		j.status = StatusFailed
		j.err = err
		p.failed.Inc()
		if t != nil {
			t.failed++
			t.mFailed.Inc()
		}
	}
	if !j.started.IsZero() {
		p.queueWait.Observe(j.started.Sub(j.created).Seconds())
		p.runTime.Observe(j.finished.Sub(j.started).Seconds())
	} else {
		// Cancelled while still queued: its whole life was queue wait.
		p.queueWait.Observe(j.finished.Sub(j.created).Seconds())
	}
	close(j.done)
	j.cancelFn() // release the context's resources in every path
	j.fn = nil   // the closure can pin tables and explorers; drop it
	p.retainLocked(j)
}

// retainLocked files a terminal job into its session's retention window
// (oldest evicted beyond DefaultRetainPerSession). A released session's
// last draining job is dropped immediately instead — nothing of a closed
// session outlives its drain.
func (p *Pool) retainLocked(j *Job) {
	s := j.session
	if _, rel := p.released[s]; rel && len(p.queues[s]) == 0 && p.running[s] == nil {
		delete(p.jobs, j.id)
		delete(p.released, s)
		return
	}
	log := append(p.doneBySession[s], j.id)
	for len(log) > DefaultRetainPerSession {
		delete(p.jobs, log[0])
		log = log[1:]
	}
	p.doneBySession[s] = log
}
