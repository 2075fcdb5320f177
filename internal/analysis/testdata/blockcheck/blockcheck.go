// Package blockcheck is analyzer testdata: may-block facts propagating
// up the call graph, and calls to may-block functions under a held
// mutex. `want` comments assert the diagnostics blockcheck must (and
// must not) produce.
package blockcheck

import (
	"sync"
	"time"
)

type q struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// nap blocks directly (std call).
func nap() {
	time.Sleep(time.Millisecond)
}

// helper blocks transitively through nap — the name gives nothing away.
func helper() { nap() }

// recv blocks directly (channel receive).
func (s *q) recv() int { return <-s.ch }

// poll is non-blocking: the select has a default case.
func (s *q) poll() bool {
	select {
	case v := <-s.ch:
		s.n = v
		return true
	default:
		return false
	}
}

func (s *q) throughHelper() {
	s.mu.Lock()
	helper() // want `call to helper while holding s\.mu may block the lock: it calls nap, which .*sleeps \(time\.Sleep\)`
	s.mu.Unlock()
}

func (s *q) throughMethod() {
	s.mu.Lock()
	s.n = s.recv() // want `call to \(\*q\)\.recv while holding s\.mu may block the lock: it receives from a channel`
	s.mu.Unlock()
}

func (s *q) afterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	helper()
}

func (s *q) pollHeld() {
	s.mu.Lock()
	_ = s.poll()
	s.mu.Unlock()
}

// dynamic calls are unknown callees: ignored.
func (s *q) dynamic(f func()) {
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// waiter exercises interface resolution: the held-lock call goes
// through the interface and lands on the one implementation in scope.
type waiter interface{ wait() }

type chanWaiter struct{ ch chan int }

func (w *chanWaiter) wait() { <-w.ch }

func (s *q) viaIface(w waiter) {
	s.mu.Lock()
	w.wait() // want `call to \(\*chanWaiter\)\.wait \(via \(waiter\)\.wait\) while holding s\.mu may block the lock: it receives from a channel`
	s.mu.Unlock()
}
