package jobs

import (
	"slices"
	"time"
)

// ring is a round-robin cursor over distinct elements. A pushed element
// joins the back of the round; removing one keeps the cursor on the same
// next element, and advance moves only if the element it leaves is still
// current — so "drop the drained element, then advance" moves the cursor
// once, not twice.
type ring[T comparable] struct {
	items []T
	next  int // index of the current element; 0 when empty
}

// cur returns the element under the cursor; the ring must be non-empty.
func (r *ring[T]) cur() T { return r.items[r.next] }

func (r *ring[T]) push(x T) {
	r.items = slices.Insert(r.items, r.next, x)
	if len(r.items) > 1 {
		r.next++ // the cursor stays on its element; x sits right behind it
	}
}

// advance moves the cursor off from, reporting false (and not moving)
// when from is no longer the current element.
func (r *ring[T]) advance(from T) bool {
	if len(r.items) == 0 || r.items[r.next] != from {
		return false
	}
	r.next = (r.next + 1) % len(r.items)
	return true
}

func (r *ring[T]) remove(x T) {
	i := slices.Index(r.items, x)
	if i < 0 {
		return
	}
	r.items = slices.Delete(r.items, i, i+1)
	if i < r.next {
		r.next--
	}
	if r.next >= len(r.items) {
		r.next = 0
	}
}

// tenantState is one tenant's scheduling and accounting state, kept by
// the pool while a session record points at it (see dropIfDrainedLocked).
type tenantState struct {
	name     string
	sessions ring[*sessionState] // sessions with queued work
	queued   int                 // queued jobs across the tenant's sessions
	inFlight int                 // running jobs
	live     int                 // session records of this tenant (the pool's)
	outcome  outcomeCounters     // blaeu_tenant_jobs_total (the pool's)
}

// sched is the scheduling policy — who runs next — as a plain data
// structure: round-robin over the tenants with queued work, round-robin
// over a tenant's sessions, FIFO within a session, both queue caps and
// the queue deadlines. It starts nothing, locks nothing and never reads
// the clock: the pool calls it under its own lock and hands it the
// time, and a test can drive it single-threaded. A queued job leaves its queue through take only.
type sched struct {
	maxQueued           int // cap on queued (0 = unbounded)
	maxQueuedPerSession int // cap on one session's queue (0 = unbounded)

	tenants ring[*tenantState] // tenants with queued work, round-robin order
	queued  int                // queued jobs across all sessions
	running int                // jobs popped and not yet finished
}

// push appends j to its session's queue, or refuses it with a
// *QueueFullError naming the cap that is reached.
func (sc *sched) push(j *Job) error {
	s, t := j.sess, j.sess.tenant
	if cap := sc.maxQueuedPerSession; cap > 0 && len(s.queue) >= cap {
		return &QueueFullError{Scope: ScopeSession, Key: s.name, Limit: cap}
	}
	if cap := sc.maxQueued; cap > 0 && sc.queued >= cap {
		return &QueueFullError{Scope: ScopePool, Key: t.name, Limit: cap}
	}
	if len(s.queue) == 0 {
		t.sessions.push(s)
	}
	if t.queued == 0 {
		sc.tenants.push(t)
	}
	s.queue = append(s.queue, j)
	t.queued++
	sc.queued++
	return nil
}

// pop dequeues the next dispatchable job under the round-robin
// contract: visit the tenant at the cursor, take the FIFO head of its
// next eligible session and advance the cursor past it. Tenants with
// nothing dispatchable are skipped; a tenant the dispatch drains leaves
// the ring, and its successor is served next. Queue heads whose deadline
// passed come back in expired — out of their queues, never dispatched.
// The returned job is its session's running job until finished is
// called.
func (sc *sched) pop(now time.Time) (next *Job, expired []*Job) {
	for misses := 0; misses < len(sc.tenants.items); {
		t := sc.tenants.cur()
		next, expired = sc.popTenant(t, now, expired)
		if next != nil {
			next.sess.running = next
			t.inFlight++
			sc.running++
			sc.tenants.advance(t)
			return next, expired
		}
		if sc.tenants.advance(t) { // false: shedding emptied t out of the ring
			misses++
		}
	}
	return nil, expired
}

// popTenant dequeues the next runnable job of one tenant: round-robin
// over its sessions with queued work, skipping sessions whose job is
// running (per-session serialization) and collecting expired queue heads
// before they can reach a worker.
func (sc *sched) popTenant(t *tenantState, now time.Time, expired []*Job) (*Job, []*Job) {
	for misses := 0; misses < len(t.sessions.items); {
		s := t.sessions.cur()
		n := 0
		for n < len(s.queue) && s.queue[n].expired(now) {
			n++
		}
		expired = append(expired, s.queue[:n]...)
		if sc.take(s, 0, n); len(s.queue) == 0 {
			continue // s left the subring; the miss bound tightened with it
		}
		if s.running != nil {
			t.sessions.advance(s)
			misses++
			continue
		}
		j := s.queue[0]
		sc.take(s, 0, 1)
		t.sessions.advance(s)
		return j, expired
	}
	return nil, expired
}

// take cuts queue[i:k] out of the session's queue and settles the books:
// a session with nothing queued leaves its tenant's subring, a tenant
// with nothing queued leaves the ring.
func (sc *sched) take(s *sessionState, i, k int) {
	t := s.tenant
	if i == 0 { // the dispatch path: drop the head without moving the tail
		clear(s.queue[:k])
		s.queue = s.queue[k:]
	} else {
		s.queue = slices.Delete(s.queue, i, k)
	}
	t.queued -= k - i
	sc.queued -= k - i
	if len(s.queue) == 0 {
		s.queue = nil
		t.sessions.remove(s)
	}
	if t.queued == 0 {
		sc.tenants.remove(t)
	}
}

// remove takes a queued job out of its session's queue (a cancellation).
func (sc *sched) remove(j *Job) {
	if i := slices.Index(j.sess.queue, j); i >= 0 {
		sc.take(j.sess, i, i+1)
	}
}

// removeSession empties the session's queue and returns what was in it,
// in submit order.
func (sc *sched) removeSession(s *sessionState) []*Job {
	out := slices.Clone(s.queue)
	sc.take(s, 0, len(out))
	return out
}

// drain empties every queue and returns the jobs (shutdown's hook).
func (sc *sched) drain() []*Job {
	var out []*Job
	for len(sc.tenants.items) > 0 {
		out = append(out, sc.removeSession(sc.tenants.cur().sessions.cur())...)
	}
	return out
}

// finished tells the policy that a job pop handed out has returned: its
// session may dispatch again.
func (sc *sched) finished(j *Job) {
	j.sess.running = nil
	j.sess.tenant.inFlight--
	sc.running--
}

// expired reports whether the job's queue deadline has passed.
func (j *Job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && now.After(j.deadline)
}
