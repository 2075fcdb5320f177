package jobs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The policy type against a reference written for obviousness: plain
// slices whose head is "visited next" (advance = rotate, a newcomer
// appends), linear scans, and every count recounted from the queues
// each time it is needed. sched keeps cursors and running totals
// instead; the two must pop the same job at every step.

type mjob struct {
	seq      int
	sess     *msess
	deadline int // model clock tick; 0 = none
}

func (j *mjob) expired(now int) bool { return j.deadline != 0 && now > j.deadline }

type msess struct {
	name, tenant string
	queue        []*mjob
	running      *mjob
}

type model struct {
	tenants                  []string
	maxQueued, maxPerSession int
	sess                     []*msess
	round                    []string            // tenants with queued work; round[0] is visited next
	sub                      map[string][]*msess // per tenant: sessions with queued work, same convention
}

func (m *model) queuedOf(tenant string) (n int) {
	for _, s := range m.sess {
		if s.tenant == tenant {
			n += len(s.queue)
		}
	}
	return n
}

func rotate[T any](xs []T) []T { return append(xs[1:], xs[0]) }

// settle drops what has nothing queued from the rounds, keeping the
// order (so whoever followed a dropped head is the new head).
func (m *model) settle() {
	for _, t := range m.tenants {
		m.sub[t] = slices.DeleteFunc(m.sub[t], func(s *msess) bool { return len(s.queue) == 0 })
	}
	m.round = slices.DeleteFunc(m.round, func(t string) bool { return m.queuedOf(t) == 0 })
}

func (m *model) push(j *mjob) error {
	s := j.sess
	if m.maxPerSession > 0 && len(s.queue) >= m.maxPerSession {
		return &QueueFullError{Scope: ScopeSession, Key: s.name, Limit: m.maxPerSession}
	}
	total := 0
	for _, t := range m.tenants {
		total += m.queuedOf(t)
	}
	if m.maxQueued > 0 && total >= m.maxQueued {
		return &QueueFullError{Scope: ScopePool, Key: s.tenant, Limit: m.maxQueued}
	}
	if !slices.Contains(m.round, s.tenant) {
		m.round = append(m.round, s.tenant)
	}
	if !slices.Contains(m.sub[s.tenant], s) {
		m.sub[s.tenant] = append(m.sub[s.tenant], s)
	}
	s.queue = append(s.queue, j)
	return nil
}

func (m *model) pop(now int) (next *mjob, expired []*mjob) {
	for skipped := 0; skipped < len(m.round); {
		t := m.round[0]
		next, expired = m.popTenant(t, now, expired)
		m.settle()
		still := len(m.round) > 0 && m.round[0] == t
		if still {
			m.round = rotate(m.round)
		}
		if next != nil {
			next.sess.running = next
			return next, expired
		}
		if still {
			skipped++
		}
	}
	return nil, expired
}

func (m *model) popTenant(t string, now int, expired []*mjob) (*mjob, []*mjob) {
	for skipped := 0; skipped < len(m.sub[t]); {
		s := m.sub[t][0]
		for len(s.queue) > 0 && s.queue[0].expired(now) {
			expired = append(expired, s.queue[0])
			s.queue = s.queue[1:]
		}
		switch {
		case len(s.queue) == 0:
			m.sub[t] = m.sub[t][1:]
		case s.running != nil:
			m.sub[t] = rotate(m.sub[t])
			skipped++
		default:
			j := s.queue[0]
			s.queue = s.queue[1:]
			m.sub[t] = rotate(m.sub[t]) // settle drops s if that was its last
			return j, expired
		}
	}
	return nil, expired
}

// world is one random scenario: the production policy and the model over
// the same tenants and sessions, and the jobs of both paired by seq.
type world struct {
	t       *testing.T
	rng     *rand.Rand
	sc      *sched
	m       *model
	tenants []*tenantState
	sess    []*sessionState
	jobs    map[int]*Job
	mjobs   map[int]*mjob
	now     int
	nextSeq int
	log     []string
}

func (w *world) clock() time.Time { return time.Unix(int64(w.now), 0) }

func newWorld(t *testing.T, seed int64) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{t: t, rng: rng, jobs: map[int]*Job{}, mjobs: map[int]*mjob{}, now: 1}
	w.sc = &sched{maxQueued: []int{0, 5, 12}[rng.Intn(3)], maxQueuedPerSession: []int{0, 2, 4}[rng.Intn(3)]}
	w.m = &model{maxQueued: w.sc.maxQueued, maxPerSession: w.sc.maxQueuedPerSession, sub: map[string][]*msess{}}
	for ti, n := 0, 1+rng.Intn(4); ti < n; ti++ {
		ts := &tenantState{name: fmt.Sprintf("t%d", ti)}
		w.tenants = append(w.tenants, ts)
		w.m.tenants = append(w.m.tenants, ts.name)
		for si, k := 0, 1+rng.Intn(3); si < k; si++ {
			s := &sessionState{name: fmt.Sprintf("%s-s%d", ts.name, si), tenant: ts}
			w.sess = append(w.sess, s)
			w.m.sess = append(w.m.sess, &msess{name: s.name, tenant: ts.name})
		}
	}
	return w
}

func (w *world) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s\nops: %v", fmt.Sprintf(format, args...), w.log)
}

func seqs[J any](js []J, seq func(J) int) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = seq(j)
	}
	slices.Sort(out)
	return out
}

func jobSeq(j *Job) int   { return j.seq }
func mjobSeq(j *mjob) int { return j.seq }

// step applies one random operation to both sides and compares.
func (w *world) step() {
	rng := w.rng
	var queued, running []*Job
	for _, s := range w.sess {
		queued = append(queued, s.queue...)
		if s.running != nil {
			running = append(running, s.running)
		}
	}
	switch op := rng.Intn(100); {
	case op < 40: // push
		i := rng.Intn(len(w.sess))
		w.nextSeq++
		j := &Job{seq: w.nextSeq, sess: w.sess[i]}
		mj := &mjob{seq: w.nextSeq, sess: w.m.sess[i]}
		if rng.Intn(3) == 0 {
			mj.deadline = w.now + rng.Intn(4)
			j.deadline = time.Unix(int64(mj.deadline), 0)
		}
		w.log = append(w.log, fmt.Sprintf("push(%s#%d dl=%d)", j.sess.name, j.seq, mj.deadline))
		err, merr := w.sc.push(j), w.m.push(mj)
		var qf, mqf *QueueFullError
		if errors.As(err, &qf) != errors.As(merr, &mqf) || (qf != nil && *qf != *mqf) {
			w.failf("push: sched says %v, model says %v", err, merr)
		}
		if err == nil {
			w.jobs[j.seq], w.mjobs[j.seq] = j, mj
		}
	case op < 70: // pop
		w.log = append(w.log, fmt.Sprintf("pop@%d", w.now))
		j, expired := w.sc.pop(w.clock())
		mj, mexpired := w.m.pop(w.now)
		got, want := 0, 0
		if j != nil {
			got = j.seq
		}
		if mj != nil {
			want = mj.seq
		}
		if got != want {
			w.failf("pop: sched dispatched #%d, model #%d (0 = nothing)", got, want)
		}
		if got, want := seqs(expired, jobSeq), seqs(mexpired, mjobSeq); !slices.Equal(got, want) {
			w.failf("pop: sched expired %v, model %v", got, want)
		}
		for _, x := range expired {
			if !x.expired(w.clock()) {
				w.failf("pop: shed #%d before its deadline", x.seq)
			}
		}
		if j != nil {
			if j.expired(w.clock()) {
				w.failf("pop: dispatched #%d past its deadline", j.seq)
			}
			for _, r := range running {
				if r.sess == j.sess {
					w.failf("pop: dispatched #%d while #%d of the same session runs", j.seq, r.seq)
				}
			}
			for _, q := range j.sess.queue {
				if q.seq < j.seq {
					w.failf("pop: dispatched #%d ahead of its elder #%d", j.seq, q.seq)
				}
			}
		}
	case op < 85: // finish
		if len(running) == 0 {
			return
		}
		j := running[rng.Intn(len(running))]
		w.log = append(w.log, fmt.Sprintf("finish(#%d)", j.seq))
		w.sc.finished(j)
		w.mjobs[j.seq].sess.running = nil
	case op < 90: // remove (cancel one queued job)
		if len(queued) == 0 {
			return
		}
		j := queued[rng.Intn(len(queued))]
		w.log = append(w.log, fmt.Sprintf("remove(#%d)", j.seq))
		w.sc.remove(j)
		ms := w.mjobs[j.seq].sess
		ms.queue = slices.DeleteFunc(ms.queue, func(q *mjob) bool { return q.seq == j.seq })
		w.m.settle()
	case op < 95: // removeSession
		i := rng.Intn(len(w.sess))
		w.log = append(w.log, fmt.Sprintf("removeSession(%s)", w.sess[i].name))
		got := seqs(w.sc.removeSession(w.sess[i]), jobSeq)
		want := seqs(w.m.sess[i].queue, mjobSeq)
		w.m.sess[i].queue = nil
		w.m.settle()
		if !slices.Equal(got, want) {
			w.failf("removeSession: sched returned %v, model %v", got, want)
		}
	default: // the clock moves
		w.now += 1 + rng.Intn(3)
	}
	w.check()
}

// check recounts the policy's books from the queues.
func (w *world) check() {
	total := 0
	for _, ts := range w.tenants {
		q, run := 0, 0
		for _, s := range w.sess {
			if s.tenant != ts {
				continue
			}
			q += len(s.queue)
			if s.running != nil {
				run++
			}
			if slices.Contains(ts.sessions.items, s) != (len(s.queue) > 0) {
				w.failf("session %s: %d queued, subring %v", s.name, len(s.queue), ringNames(ts.sessions.items))
			}
			if !slices.IsSortedFunc(s.queue, func(a, b *Job) int { return a.seq - b.seq }) {
				w.failf("session %s: queue out of submit order", s.name)
			}
		}
		if ts.queued != q || ts.inFlight != run {
			w.failf("tenant %s: books say queued=%d inFlight=%d, recount %d/%d", ts.name, ts.queued, ts.inFlight, q, run)
		}
		if slices.Contains(w.sc.tenants.items, ts) != (q > 0) {
			w.failf("tenant %s: %d queued, ring membership wrong", ts.name, q)
		}
		if n := len(ts.sessions.items); ts.sessions.next > max(n-1, 0) {
			w.failf("tenant %s: subring cursor %d of %d", ts.name, ts.sessions.next, n)
		}
		total += q
	}
	running := 0
	for _, s := range w.sess {
		if s.running != nil {
			running++
		}
	}
	if w.sc.queued != total || w.sc.running != running {
		w.failf("books say queued=%d running=%d, recount %d/%d", w.sc.queued, w.sc.running, total, running)
	}
	if n := len(w.sc.tenants.items); w.sc.tenants.next > max(n-1, 0) || n > len(w.tenants) {
		w.failf("ring cursor %d of %d", w.sc.tenants.next, n)
	}
}

func ringNames(ss []*sessionState) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

// TestSchedAgainstModel drives the policy single-threaded through seeded
// random sequences of push / pop / finish / remove / removeSession /
// clock-advance over 1–4 tenants (both caps, deadlines), and after every
// operation holds it to the model's answer and to the recounted books
// (see step and check). No goroutine, no sleep: the properties
// TestSchedulerOverloadStress can only sample.
func TestSchedAgainstModel(t *testing.T) {
	worlds := 2000
	if testing.Short() {
		worlds = 300
	}
	for seed := int64(1); seed <= int64(worlds); seed++ {
		w := newWorld(t, seed)
		for op, n := 0, 20+w.rng.Intn(41); op < n; op++ {
			w.step()
		}
		// drain hands back exactly what is queued and leaves clean books.
		queued := 0
		for _, s := range w.sess {
			queued += len(s.queue)
		}
		if got := len(w.sc.drain()); got != queued {
			w.failf("seed %d: drain returned %d jobs of %d queued", seed, got, queued)
		}
		for _, ms := range w.m.sess {
			ms.queue = nil
		}
		w.m.settle()
		w.check()
	}
}

// TestSchedDispatchOrderPinned pins the order the policy hands out
// work: seeded random sequences of submit, pop, finish, cancel (one job
// or a whole session) and clock moves over 1–4 tenants of 1–3 sessions,
// with both queue caps and deadlines, hashed event by event — every
// refusal, dispatch and shed in the order it happens. A policy change
// that moves any one of them changes the digest.
func TestSchedDispatchOrderPinned(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := &sched{maxQueued: []int{0, 6}[rng.Intn(2)], maxQueuedPerSession: []int{0, 3}[rng.Intn(2)]}
		var sess []*sessionState
		for ti, n := 0, 1+rng.Intn(4); ti < n; ti++ {
			ts := &tenantState{name: fmt.Sprintf("t%d", ti)}
			for si, k := 0, 1+rng.Intn(3); si < k; si++ {
				sess = append(sess, &sessionState{name: fmt.Sprintf("%s-s%d", ts.name, si), tenant: ts})
			}
		}
		now, seq := 1, 0
		for op := 0; op < 60; op++ {
			var queued, running []*Job
			for _, s := range sess {
				queued = append(queued, s.queue...)
				if s.running != nil {
					running = append(running, s.running)
				}
			}
			switch r := rng.Intn(100); {
			case r < 40:
				seq++
				j := &Job{seq: seq, sess: sess[rng.Intn(len(sess))]}
				if rng.Intn(3) == 0 {
					j.deadline = time.Unix(int64(now+rng.Intn(4)), 0)
				}
				if err := sc.push(j); err != nil {
					fmt.Fprintf(h, "r%d:%s;", seq, err)
				}
			case r < 75:
				j, expired := sc.pop(time.Unix(int64(now), 0))
				for _, x := range expired {
					fmt.Fprintf(h, "x%d;", x.seq)
				}
				if j != nil {
					fmt.Fprintf(h, "d%d;", j.seq)
				}
			case r < 88:
				if len(running) > 0 {
					sc.finished(running[rng.Intn(len(running))])
				}
			case r < 94:
				if len(queued) > 0 {
					sc.remove(queued[rng.Intn(len(queued))])
				}
			case r < 96:
				for _, j := range sc.removeSession(sess[rng.Intn(len(sess))]) {
					fmt.Fprintf(h, "c%d;", j.seq)
				}
			default:
				now += 1 + rng.Intn(3)
			}
		}
		fmt.Fprintf(h, "|")
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "427e6bf0ad8f0fa6"; got != want {
		t.Errorf("dispatch digest %s, want %s", got, want)
	}
}
