// Package blockuse is the consumer half of lockcheck's cross-package
// fact test: it calls blockdep.Tidy — whose may-block fact was exported
// when blockdep was analyzed — while holding a mutex. Nothing at the
// call site looks blocking; the fact propagation is what catches it.
package blockuse

import (
	"sync"

	"testdata/blockdep"
)

type reg struct {
	mu sync.Mutex
	n  int
}

func (r *reg) flush() {
	r.mu.Lock()
	blockdep.Tidy() // want `call to blockdep\.Tidy while holding r\.mu may block the lock: it calls Settle, which .*sleeps \(time\.Sleep\)`
	r.n = 0
	r.mu.Unlock()
}

func (r *reg) flushSafely() {
	r.mu.Lock()
	r.n = 0
	r.mu.Unlock()
	blockdep.Tidy()
}
