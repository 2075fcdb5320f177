package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cores"
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
// caps), tenant weights and the per-tenant concurrency quota. The zero
// value is one worker per core of the cores budget, unbounded queues,
// every tenant at weight 1. Which tenant a session belongs to is said at
// Submit, not here.
type Config struct {
	// Workers is the number of job workers (<= 0 means cores.Width()).
	Workers int
	// MaxQueued caps the total number of queued jobs across all sessions;
	// Submit beyond it fails with a pool-scoped QueueFullError
	// (0 = unbounded). Running jobs do not count against it.
	MaxQueued int
	// MaxQueuedPerSession caps the queued jobs of one session; Submit
	// beyond it fails with a session-scoped QueueFullError (0 = unbounded).
	MaxQueuedPerSession int
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

// sessionState is the pool's one record of a session, kept from its
// first submit until it is released with nothing in flight. sched moves
// jobs from queue to running; done and released are retention's.
type sessionState struct {
	name     string
	tenant   *tenantState // fixed by the first submit
	queue    []*Job       // queued jobs, FIFO
	running  *Job         // the session's running job, if any
	done     []*Job       // retained terminal jobs, oldest first
	released bool         // dropped by the session tier; retains nothing
}

// outcomeCounters is one jobs_total family by outcome label: the four
// terminal statuses plus outcomeRejected — not a job's status, since a
// refused submit never becomes a job.
type outcomeCounters map[Status]*obs.Counter

const outcomeRejected Status = "rejected"

var outcomeLabels = []Status{StatusDone, StatusFailed, StatusCancelled, StatusShed, outcomeRejected}

// Pool is a bounded worker pool dispatching jobs FIFO per session, with
// weighted round-robin fairness across tenants and round-robin across a
// tenant's sessions (see the package comment for the full scheduling
// contract, including backpressure and deadline shedding). The pool is
// the mechanism — workers, cancellation, retention, accounting; which
// job runs next is sched's decision.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config

	sched    sched
	sessions map[string]*sessionState
	tenants  map[string]*tenantState // live tenants (see tenantState)
	jobs     map[string]*Job         // every known job by ID

	// Pool-lifetime outcome counters, held as registry handles so the
	// scheduler's counts and /metrics are one source of truth. With no
	// registry configured the handles are detached but still count.
	outcome            outcomeCounters
	queueWait, runTime *obs.Histogram
	nextID             int
	closed             bool

	wg sync.WaitGroup
}

// NewPoolConfig starts a pool under the given scheduling configuration;
// the zero Config means cores.Width() job workers and no backpressure
// limits.
func NewPoolConfig(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = cores.Width()
	}
	p := &Pool{
		cfg:      cfg,
		sched:    sched{maxQueued: cfg.MaxQueued, maxQueuedPerSession: cfg.MaxQueuedPerSession},
		sessions: make(map[string]*sessionState),
		tenants:  make(map[string]*tenantState),
		jobs:     make(map[string]*Job),
		outcome:  make(outcomeCounters),
	}
	reg := cfg.Obs
	for _, o := range outcomeLabels {
		p.outcome[o] = reg.Counter("blaeu_jobs_total", "Jobs by terminal outcome.", obs.Labels{"outcome": string(o)})
	}
	p.queueWait = reg.Histogram("blaeu_job_queue_wait_seconds",
		"Submit-to-dispatch wait (shed jobs: submit-to-shed).", nil, nil)
	p.runTime = reg.Histogram("blaeu_job_run_seconds",
		"Dispatch-to-finish run time of jobs that reached a worker.", nil, nil)
	gQueued := reg.Gauge("blaeu_jobs_queued", "Jobs currently queued across all sessions.", nil)
	gRunning := reg.Gauge("blaeu_jobs_running", "Jobs currently running.", nil)
	reg.Gauge("blaeu_jobs_workers", "Configured worker parallelism.", nil).Set(float64(cfg.Workers))
	reg.RegisterCollector(func() {
		p.mu.Lock()
		q, r := p.sched.queued, p.sched.running
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
func (p *Pool) Workers() int { return p.cfg.Workers }

// Submit queues fn as a job under the given session key and returns its
// handle immediately. Jobs of one session run FIFO, one at a time. tenant
// is the session's fairness and quota group ("" = the session is its own
// tenant); the session's first submit fixes it. Under overload (a queue
// cap reached) Submit fails with ErrQueueFull instead of queueing
// unboundedly. opts carries the per-job scheduling options (deadline).
func (p *Pool) Submit(session, tenant, kind string, fn Func, opts SubmitOptions) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("jobs: pool is closed")
	}
	s := p.sessionFor(session, tenant)
	j := &Job{
		pool:     p,
		sess:     s,
		kind:     kind,
		fn:       fn,
		deadline: opts.Deadline,
		done:     make(chan struct{}),
		status:   StatusQueued,
		meta:     make(map[string]any),
		created:  time.Now(),
	}
	if err := p.sched.push(j); err != nil {
		s.tenant.outcome[outcomeRejected].Inc()
		p.outcome[outcomeRejected].Inc()
		p.dropIfDrainedLocked(s)
		return nil, err
	}
	s.released = false // the session is live again
	p.nextID++
	j.seq, j.id = p.nextID, fmt.Sprintf("j%06d", p.nextID)
	j.ctx, j.cancelFn = context.WithCancel(context.Background())
	p.jobs[j.id] = j
	p.cond.Signal()
	return j, nil
}

// sessionFor returns the session's record, making it and its tenant's
// state on first sight. A fresh record starts out released, so a first
// submit that is refused leaves nothing behind.
func (p *Pool) sessionFor(session, tenant string) *sessionState {
	if s := p.sessions[session]; s != nil {
		return s
	}
	if tenant == "" {
		tenant = session
	}
	t := p.tenants[tenant]
	if t == nil {
		t = &tenantState{
			name:        tenant,
			weight:      max(p.cfg.Weights[tenant], 1),
			maxInFlight: max(p.cfg.DefaultMaxInFlight, 0),
			outcome:     make(outcomeCounters),
		}
		for _, o := range outcomeLabels {
			t.outcome[o] = p.cfg.Obs.Counter("blaeu_tenant_jobs_total", "Jobs by tenant and terminal outcome.",
				obs.Labels{"tenant": tenant, "outcome": string(o)})
		}
		p.tenants[tenant] = t
	}
	t.live++
	s := &sessionState{name: session, tenant: t, released: true}
	p.sessions[session] = s
	return s
}

// dropIfDrainedLocked forgets a released session once nothing of it is
// queued or running, and the tenant's state with its last session — its
// counts are rolled up at pool level, so nothing observable is lost, and
// a stream of short-lived identity tenants cannot grow p.tenants (or the
// Stats payload) without bound.
func (p *Pool) dropIfDrainedLocked(s *sessionState) {
	if !s.released || len(s.queue) > 0 || s.running != nil {
		return
	}
	delete(p.sessions, s.name)
	if s.tenant.live--; s.tenant.live == 0 {
		delete(p.tenants, s.tenant.name)
	}
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
// only the session's own record, never the other sessions' jobs.
func (p *Pool) SessionJobs(session string) []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions[session]
	if s == nil {
		return nil
	}
	out := slices.Clone(s.done)
	if s.running != nil {
		out = append(out, s.running)
	}
	out = append(out, s.queue...)
	// A job cancelled or shed in the queue turns terminal ahead of its
	// elders, so the concatenation is not yet in submit order.
	slices.SortFunc(out, func(a, b *Job) int { return a.seq - b.seq })
	return out
}

// LiveJobs snapshots the session's running and queued jobs, in submit
// order, under one lock: a job cannot turn terminal between being
// listed and being snapshotted, and the retained terminal jobs are
// never formatted.
func (p *Pool) LiveJobs(session string) []Info {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions[session]
	if s == nil {
		return nil
	}
	var out []Info
	if s.running != nil { // older than every queued job: one at a time, FIFO
		out = append(out, s.running.infoLocked())
	}
	for _, j := range s.queue {
		out = append(out, j.infoLocked())
	}
	return out
}

// InFlight reports how many of the session's jobs are queued or
// running. The session tier's idle evictor consults it so a session
// with work in flight never counts as abandoned.
func (p *Pool) InFlight(session string) int {
	st := p.SessionStats(session)
	return st.Queued + st.Running
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
	s := p.sessions[session]
	if s == nil {
		return 0
	}
	queued := p.sched.removeSession(s)
	for _, j := range queued {
		p.finishLocked(j, StatusCancelled, nil, context.Canceled)
	}
	n := len(queued)
	if j := s.running; j != nil && j.ctx.Err() == nil {
		j.cancelFn()
		n++
	}
	return n
}

// ReleaseSession drops the session's retained terminal jobs — the
// memory-hygiene hook the session tier calls after closing a session
// (after CancelSession). Work still draining (a cancelled build that has
// not returned yet) is dropped the moment it finishes, the session's
// record with its last job, and a tenant with its last session.
func (p *Pool) ReleaseSession(session string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions[session]
	if s == nil {
		return
	}
	for _, j := range s.done {
		delete(p.jobs, j.id)
	}
	s.done, s.released = nil, true
	p.dropIfDrainedLocked(s)
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
	for _, j := range p.sched.drain() {
		p.finishLocked(j, StatusCancelled, nil, context.Canceled)
	}
	for _, s := range p.sessions {
		if s.running != nil {
			s.running.cancelFn()
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
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
// covers only live tenants (sessions not yet released, or work in
// flight). A tenant's counters are the registry's blaeu_tenant_jobs_total
// series — cumulative for a tenant that returns while a registry is
// configured, starting over (detached handles) without one; the
// pool-level counters never reset.
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
		Workers:             p.cfg.Workers,
		Queued:              p.sched.queued,
		Running:             p.sched.running,
		MaxQueued:           p.cfg.MaxQueued,
		MaxQueuedPerSession: p.cfg.MaxQueuedPerSession,
		Done:                p.outcome[StatusDone].Value(),
		Failed:              p.outcome[StatusFailed].Value(),
		Cancelled:           p.outcome[StatusCancelled].Value(),
		Shed:                p.outcome[StatusShed].Value(),
		Rejected:            p.outcome[outcomeRejected].Value(),
		Tenants:             make(map[string]TenantStats, len(p.tenants)),
	}
	if n := p.queueWait.Count(); n > 0 {
		st.AvgQueueWaitMs = p.queueWait.Sum() / float64(n) * 1e3
	}
	if n := p.runTime.Count(); n > 0 {
		st.AvgRunMs = p.runTime.Sum() / float64(n) * 1e3
	}
	for name, t := range p.tenants {
		st.Tenants[name] = TenantStats{
			Weight:      t.weight,
			MaxInFlight: t.maxInFlight,
			Queued:      t.queued,
			InFlight:    t.inFlight,
			Done:        t.outcome[StatusDone].Value(),
			Failed:      t.outcome[StatusFailed].Value(),
			Cancelled:   t.outcome[StatusCancelled].Value(),
			Shed:        t.outcome[StatusShed].Value(),
			Rejected:    t.outcome[outcomeRejected].Value(),
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

// SessionStats snapshots the scheduler state of one session. Tenant is
// empty for a session the pool has seen no submit of: it is said there.
func (p *Pool) SessionStats(session string) SessionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := SessionStats{QueueCap: p.cfg.MaxQueuedPerSession}
	if s := p.sessions[session]; s != nil {
		st.Tenant, st.Queued = s.tenant.name, len(s.queue)
		if s.running != nil {
			st.Running = 1
		}
	}
	return st
}

// --- internals (all require p.mu unless noted) ---

// worker is one dispatch loop: pop the next fair job, shed what expired
// on the way, run the job, publish the outcome, repeat.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return
		}
		j, expired := p.sched.pop(time.Now())
		for _, x := range expired { // shed: never occupies a worker
			p.finishLocked(x, StatusShed, nil, context.DeadlineExceeded)
		}
		if j == nil {
			p.cond.Wait()
			continue
		}
		j.status = StatusRunning
		j.started = time.Now()
		p.mu.Unlock()

		// The job's core is busy while it runs, so its build's fan-out
		// borrows only the cores no other job holds.
		release := cores.Hold()
		res, err := runJob(j)
		release()

		p.mu.Lock()
		p.sched.finished(j)
		status := StatusDone
		if errors.Is(err, context.Canceled) || (err != nil && j.ctx.Err() != nil) {
			status = StatusCancelled
		} else if err != nil {
			status = StatusFailed
		}
		p.finishLocked(j, status, res, err)
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

// cancel implements Job.Cancel.
func (p *Pool) cancel(j *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch j.status {
	case StatusQueued:
		p.sched.remove(j)
		p.finishLocked(j, StatusCancelled, nil, context.Canceled)
		return true
	case StatusRunning:
		j.cancelFn()
		return true
	default:
		return false
	}
}

// finishLocked is the one way a job ends — done, failed, cancelled or
// shed, off a worker or out of its queue (which it has left already): it
// moves the job to its terminal state, publishes the outcome and files
// the job for status lookups.
func (p *Pool) finishLocked(j *Job, status Status, res any, err error) {
	j.status, j.finished = status, time.Now()
	if status == StatusDone {
		j.result, j.progress = res, 1
	} else {
		j.err = err
	}
	p.outcome[status].Inc()
	j.sess.tenant.outcome[status].Inc()
	if j.started.IsZero() { // never dispatched: its whole life was queue wait
		p.queueWait.Observe(j.finished.Sub(j.created).Seconds())
	} else {
		p.queueWait.Observe(j.started.Sub(j.created).Seconds())
		p.runTime.Observe(j.finished.Sub(j.started).Seconds())
	}
	close(j.done)
	j.cancelFn() // release the context's resources in every path
	j.fn = nil   // the closure can pin tables and explorers; drop it

	// Retention: the session's window of terminal jobs, oldest evicted
	// beyond DefaultRetainPerSession. A released session retains nothing,
	// so nothing of a closed session outlives its drain.
	s := j.sess
	if s.released {
		delete(p.jobs, j.id)
		p.dropIfDrainedLocked(s)
		return
	}
	if s.done = append(s.done, j); len(s.done) > DefaultRetainPerSession {
		delete(p.jobs, s.done[0].id)
		s.done = slices.Delete(s.done, 0, 1)
	}
}
