// Package lockcheck is analyzer testdata. `want` comments assert the
// diagnostics the lockcheck analyzer must (and must not) produce.
package lockcheck

import "sync"

type guarded struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	items []int
	ch    chan int
}

// Deferred is a negative example: the canonical defer pairing.
func (g *guarded) Deferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.items = append(g.items, 1)
}

// Straight is a negative example: an explicit unlock on the
// fall-through path.
func (g *guarded) Straight() {
	g.mu.Lock()
	g.items = append(g.items, 1)
	g.mu.Unlock()
}

// EarlyExit is a negative example: every path out releases the lock.
func (g *guarded) EarlyExit(stop bool) {
	g.mu.Lock()
	if stop {
		g.mu.Unlock()
		return
	}
	g.items = append(g.items, 1)
	g.mu.Unlock()
}

func (g *guarded) LeakOnReturn(stop bool) {
	g.mu.Lock()
	if stop {
		return // want `holding g.mu`
	}
	g.mu.Unlock()
}

func (g *guarded) NeverReleased() {
	g.mu.Lock() // want `not released`
	g.items = append(g.items, 1)
}

func (g *guarded) ReadLeak(stop bool) int {
	g.rw.RLock()
	if stop {
		return 0 // want `holding g.rw`
	}
	n := len(g.items)
	g.rw.RUnlock()
	return n
}

func (g *guarded) SendWhileLocked(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- v // want `channel send while holding g.mu`
}

func (g *guarded) RecvWhileLocked() int {
	g.mu.Lock()
	v := <-g.ch // want `channel receive while holding g.mu`
	g.mu.Unlock()
	return v
}

func (g *guarded) SelectWhileLocked() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `select without default while holding g.mu`
	case v := <-g.ch:
		g.items = append(g.items, v)
	}
}

// TrySelect is a negative example: select with a default never blocks.
func (g *guarded) TrySelect() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-g.ch:
		g.items = append(g.items, v)
	default:
	}
}

// RecvAfterUnlock is a negative example: the receive happens after the
// lock is released.
func (g *guarded) RecvAfterUnlock() int {
	g.mu.Lock()
	g.items = nil
	g.mu.Unlock()
	return <-g.ch
}

// WaitCond is a negative example: sync.Cond.Wait releases the lock
// itself and is the sanctioned wait-under-lock shape.
func (g *guarded) WaitCond(c *sync.Cond) {
	c.L.Lock()
	defer c.L.Unlock()
	for len(g.items) == 0 {
		c.Wait()
	}
}

// pool's Submit hands work to a worker over a channel: it may block,
// and that fact, not the name, is what makes a held-lock call a finding.
type pool struct{ work chan func() }

func (p *pool) Submit(f func()) { p.work <- f }

func (g *guarded) SubmitWhileLocked(p *pool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p.Submit(func() {}) // want `call to \(\*pool\)\.Submit while holding g\.mu may block the lock: it sends on a channel`
}

// SubmitSuppressed is a negative example: the finding is silenced by a
// reasoned nolint comment.
func (g *guarded) SubmitSuppressed(p *pool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	//blaeu:nolint lockcheck submitting under the lock closes a submit/close race
	p.Submit(func() {})
}

// inline's Submit runs the work on the caller: nothing in it blocks.
type inline struct{ done int }

func (p *inline) Submit(f func()) {
	f()
	p.done++
}

// SubmitInline is a negative example: a method named Submit that
// cannot block is no finding under the lock.
func (g *guarded) SubmitInline(p *inline) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p.Submit(func() {})
}

// InnerUnlock is a negative example: the hit branch releases the lock
// before it waits and returns, so the receive is not under the lock.
func (g *guarded) InnerUnlock(hit bool) {
	g.mu.Lock()
	if hit {
		g.items = nil
		g.mu.Unlock()
		<-g.ch
		return
	}
	g.items = append(g.items, 1)
	g.mu.Unlock()
}

func (g *guarded) BlockBeforeInnerUnlock(hit bool) {
	g.mu.Lock()
	if hit {
		<-g.ch // want `channel receive while holding g.mu`
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
}

// Worker is a negative example: the scheduler's lock-handoff loop. The
// lock is held entering the loop, released before running work and
// retaken at the bottom; exits inside the loop unlock first.
func (g *guarded) Worker() {
	g.mu.Lock()
	for {
		if len(g.items) == 0 {
			g.mu.Unlock()
			return
		}
		g.items = g.items[1:]
		g.mu.Unlock()
		g.work()
		g.mu.Lock()
	}
}

func (g *guarded) work() {}
