// Package jobs implements the asynchronous job scheduler of the session
// tier: a bounded worker pool with weighted fairness and admission
// control, typed job handles carrying status, progress and results, and
// cooperative cancellation through context.Context.
//
// The pool exists to keep the HTTP tier responsive. Map builds (theme
// selection, zoom, projection, filter) are submitted as jobs and run on
// pool workers, so a large clustering never stalls its session's lock —
// the lock is held only for the prepare and apply steps around the build
// (see internal/session.Manager.Submit). The same motivation as
// Polynesia's isolated analytical engines: interactive traffic must not
// queue behind heavy analytics. At scale, admission control and
// workload isolation are part of the engine (the Cambridge report's
// multi-tenancy argument), so the scheduler also owns backpressure.
//
// Scheduling guarantees:
//
//   - jobs of one session run strictly in submit order, one at a time
//     (per-session serialization — what makes the prepare/apply protocol
//     of core.MapBuild safe without holding the session lock);
//   - sessions roll up to tenants (named at Submit; a session is its
//     own tenant by default) and dispatch across tenants is weighted
//     round-robin: a tenant of weight w is offered up to w consecutive
//     dispatches per round (Config.Weights), so under contention it
//     completes ~w× the work of a weight-1 tenant and nobody starves;
//   - a tenant that gets queued work joins the back of the round, and one
//     whose queue a dispatch drains hands the turn to the tenant behind
//     it — so single-job tenants run in arrival order;
//   - within a tenant, dispatch is round-robin over its sessions;
//   - a tenant never runs more than its in-flight quota concurrently
//     (Config.DefaultMaxInFlight);
//   - at most Workers jobs run at once.
//
// Backpressure: Submit fails with ErrQueueFull once a queue cap —
// per-session (Config.MaxQueuedPerSession) or pool-wide
// (Config.MaxQueued) — is reached, instead of queueing unboundedly; the
// HTTP tier maps that to 429 with Retry-After. Jobs may carry a queue
// deadline (SubmitOptions.Deadline): a job still queued past it is shed
// by the dispatcher (StatusShed, never occupying a worker), which keeps
// sync submit-and-wait requests from computing maps nobody is waiting
// for. Pool.Stats exposes queue depths and the shed/rejected counters.
package jobs

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Status is a job's lifecycle state. Transitions are strictly
// queued → running → {done, failed, cancelled}, except that a queued job
// cancelled before dispatch goes straight to cancelled, and a queued job
// whose deadline expires goes straight to shed.
type Status string

// The job states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
	// StatusShed marks a job dropped by deadline-based load shedding: its
	// queue deadline expired before a worker picked it up. Shed jobs
	// never run; Wait returns context.DeadlineExceeded.
	StatusShed Status = "shed"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled || s == StatusShed
}

// Func is the work a job performs. ctx is cancelled when the job is
// cancelled (or the pool closes); long builds must observe it. The job
// handle is passed in so the function can report progress fractions
// (Job.SetProgress) and attach metadata (Job.SetMeta) while running. The
// returned value becomes Job.Result on success.
type Func func(ctx context.Context, j *Job) (any, error)

// Job is the handle of one scheduled unit of work. All mutable state is
// guarded by the owning pool's lock; the accessors below are safe for
// concurrent use.
type Job struct {
	pool *Pool
	id   string
	seq  int           // submit order; id is its formatted form
	sess *sessionState // the session's record, which names its tenant
	kind string
	fn   Func

	ctx      context.Context
	cancelFn context.CancelFunc
	deadline time.Time
	done     chan struct{}

	// Guarded by pool.mu.
	status   Status
	progress float64
	result   any
	err      error
	meta     map[string]any
	trace    *obs.Trace
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the pool-unique job identifier.
func (j *Job) ID() string { return j.id }

// Session returns the serialization key the job was submitted under
// (the session ID at the HTTP tier).
func (j *Job) Session() string { return j.sess.name }

// Tenant returns the fairness/quota key the job is accounted under —
// the session itself unless its first Submit named a tenant.
func (j *Job) Tenant() string { return j.sess.tenant.name }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.status
}

// Progress returns the completion fraction in [0, 1]. It is monotone:
// SetProgress never moves it backwards, and terminal success pins it
// to 1.
func (j *Job) Progress() float64 {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.progress
}

// SetProgress reports a completion fraction from inside Func. Values are
// clamped to [0, 1]; regressions are ignored so observers always see a
// monotone fraction.
func (j *Job) SetProgress(f float64) {
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	j.pool.mu.Lock()
	if f > j.progress {
		j.progress = f
	}
	j.pool.mu.Unlock()
}

// SetMeta attaches an observable key/value to the job (e.g. the zoom
// cache reporting "cacheHit": true). Safe to call from inside Func.
func (j *Job) SetMeta(key string, value any) {
	j.pool.mu.Lock()
	j.meta[key] = value
	j.pool.mu.Unlock()
}

// SetTrace attaches the build trace recorded while the job ran, making
// it retrievable through Trace (the per-job trace endpoint). Safe to
// call from inside Func.
func (j *Job) SetTrace(t *obs.Trace) {
	j.pool.mu.Lock()
	j.trace = t
	j.pool.mu.Unlock()
}

// Trace returns the job's build trace, nil when none was recorded
// (every *obs.Trace method is nil-safe).
func (j *Job) Trace() *obs.Trace {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.trace
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's error: nil while in flight or after success, the
// Func error after failure, a context error after cancellation, and
// context.DeadlineExceeded after deadline shedding.
func (j *Job) Err() error {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.err
}

// Result returns the Func return value after a successful run, nil
// otherwise.
func (j *Job) Result() any {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.result
}

// Cancel requests cancellation: a queued job is dropped immediately
// (status cancelled), a running job has its context cancelled and
// reaches a terminal state when its Func returns. Cancel reports whether
// it had any effect (false once the job is terminal).
func (j *Job) Cancel() bool { return j.pool.cancel(j) }

// Wait blocks until the job is terminal or ctx expires. It returns the
// job's error (nil on success) or ctx's error if ctx won the race.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Info is the wire-shaped snapshot of a job, returned by the job status
// endpoints and embedded in session state responses. Timestamps are
// RFC 3339 with nanoseconds; StartedAt/FinishedAt are empty until the
// job reaches the corresponding state, Deadline until one is set.
type Info struct {
	ID         string         `json:"id"`
	Session    string         `json:"session"`
	Tenant     string         `json:"tenant,omitempty"`
	Kind       string         `json:"kind"`
	Status     Status         `json:"status"`
	Progress   float64        `json:"progress"`
	Error      string         `json:"error,omitempty"`
	Meta       map[string]any `json:"meta,omitempty"`
	CreatedAt  string         `json:"createdAt,omitempty"`
	StartedAt  string         `json:"startedAt,omitempty"`
	FinishedAt string         `json:"finishedAt,omitempty"`
	Deadline   string         `json:"deadline,omitempty"`
	// QueueWaitMs is submit-to-dispatch (for shed jobs, submit-to-shed);
	// RunMs is dispatch-to-finish. Both derive from the timestamps above
	// and appear once the corresponding interval has closed.
	QueueWaitMs float64 `json:"queueWaitMs,omitempty"`
	RunMs       float64 `json:"runMs,omitempty"`
}

// Info snapshots the job under the pool lock.
func (j *Job) Info() Info {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.infoLocked()
}

// infoLocked is Info for a caller holding the pool lock.
func (j *Job) infoLocked() Info {
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	out := Info{
		ID:         j.id,
		Session:    j.sess.name,
		Kind:       j.kind,
		Status:     j.status,
		Progress:   j.progress,
		CreatedAt:  stamp(j.created),
		StartedAt:  stamp(j.started),
		FinishedAt: stamp(j.finished),
		Deadline:   stamp(j.deadline),
	}
	if t := j.sess.tenant.name; t != j.sess.name {
		out.Tenant = t
	}
	switch {
	case !j.started.IsZero():
		out.QueueWaitMs = j.started.Sub(j.created).Seconds() * 1e3
		if !j.finished.IsZero() {
			out.RunMs = j.finished.Sub(j.started).Seconds() * 1e3
		}
	case !j.finished.IsZero():
		// Never dispatched (shed, or cancelled while queued): the whole
		// life was queue wait.
		out.QueueWaitMs = j.finished.Sub(j.created).Seconds() * 1e3
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	if len(j.meta) > 0 {
		out.Meta = make(map[string]any, len(j.meta))
		for k, v := range j.meta {
			out.Meta[k] = v
		}
	}
	return out
}
