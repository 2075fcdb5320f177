package segment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// poolIDs hands out the per-segment identifiers that namespace page
// keys inside a shared pool.
var poolIDs atomic.Uint64

// Key identifies one page within a pool: Seg is the owning segment's
// pool identifier, Page the global page index within that segment.
type Key struct {
	Seg  uint64
	Page int
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	// Hits and Misses count Get calls served from / loaded into the
	// cache; Evictions counts pages dropped to stay under budget.
	Hits, Misses, Evictions uint64
	// Used is the resident byte total, Budget the configured cap.
	Used, Budget int64
	// Entries is the number of resident pages, Pinned how many of them
	// are currently pinned.
	Entries, Pinned int
}

// entry is one resident page. Loading is coordinated through the done
// channel: the loader closes it after filling bytes/err, so concurrent
// readers of the same page wait instead of loading twice.
type entry struct {
	key        Key
	bytes      []byte
	size       int64
	pins       int
	done       chan struct{}
	err        error
	prev, next *entry // LRU list, head = most recent
}

// Pool is a byte-budgeted LRU page cache with pinning. It is safe for
// concurrent readers; a page being loaded by one goroutine is awaited
// (not reloaded) by others. Pinned pages are never evicted, so the
// resident total may transiently exceed the budget while pins are
// outstanding — it is trimmed back on release.
//
// A Pool with budget <= 0 caches nothing: every Get performs the load
// and hands the bytes straight to the caller (the degenerate cap must
// stay correct, not crash — the PR 6 LRU lesson).
type Pool struct {
	mu         sync.Mutex
	budget     int64
	used       int64
	entries    map[Key]*entry
	head, tail *entry
	hits       uint64
	misses     uint64
	evictions  uint64

	// Registry mirrors of the counters above (detached handles when the
	// pool was built without a registry). The per-pool fields stay
	// authoritative for Stats; the handles feed /metrics.
	mHits, mMisses, mEvictions *obs.Counter
}

// NewPoolObs returns a pool holding at most budget bytes of unpinned
// pages, with its counters and occupancy gauges exported through the
// registry as the blaeu_pagepool_* family (a nil registry exports
// nothing). The series are process-global: a deployment registers one
// page pool (the blaeud-wide budget), so a second pool on the same
// registry would double-count.
func NewPoolObs(budget int64, reg *obs.Registry) *Pool {
	p := &Pool{budget: budget, entries: make(map[Key]*entry)}
	p.mHits = reg.Counter("blaeu_pagepool_hits_total", "Page reads served from the buffer pool.", nil)
	p.mMisses = reg.Counter("blaeu_pagepool_misses_total", "Page reads that loaded from storage.", nil)
	p.mEvictions = reg.Counter("blaeu_pagepool_evictions_total", "Pages evicted to stay under budget.", nil)
	if reg != nil {
		gUsed := reg.Gauge("blaeu_pagepool_used_bytes", "Resident page bytes.", nil)
		gBudget := reg.Gauge("blaeu_pagepool_budget_bytes", "Configured byte budget.", nil)
		gEntries := reg.Gauge("blaeu_pagepool_entries", "Resident pages.", nil)
		gPinned := reg.Gauge("blaeu_pagepool_pinned", "Resident pages currently pinned.", nil)
		reg.RegisterCollector(func() {
			s := p.Stats()
			gUsed.Set(float64(s.Used))
			gBudget.Set(float64(s.Budget))
			gEntries.Set(float64(s.Entries))
			gPinned.Set(float64(s.Pinned))
		})
	}
	return p
}

// Handle is a pinned page. Bytes stays valid after Release — releasing
// only returns the page to the eviction candidate set (the slice is
// kept alive by the caller's reference, or by the segment mapping) —
// but callers must not retain it past the owning segment's Close.
type Handle struct {
	p *Pool
	e *entry
	b []byte
}

// Bytes returns the page payload. Callers must not mutate it.
func (h *Handle) Bytes() []byte {
	if h.e != nil {
		return h.e.bytes
	}
	return h.b
}

// Release unpins the page. Releasing a nil or already-released handle
// is a no-op.
func (h *Handle) Release() {
	if h == nil || h.e == nil {
		return
	}
	e := h.e
	h.e = nil
	p := h.p
	p.mu.Lock()
	e.pins--
	if e.pins == 0 && p.used > p.budget {
		p.evictLocked()
	}
	p.mu.Unlock()
}

// Get returns the page for key, pinned, loading it via load on a miss.
// Concurrent Gets for the same key perform one load. On load failure
// the entry is dropped and the error returned to every waiter.
func (p *Pool) Get(key Key, load func() ([]byte, error)) (*Handle, error) {
	p.mu.Lock()
	if p.budget <= 0 {
		p.misses++
		p.mMisses.Inc()
		p.mu.Unlock()
		b, err := load()
		if err != nil {
			return nil, err
		}
		return &Handle{b: b}, nil
	}
	if e, ok := p.entries[key]; ok {
		p.hits++
		p.mHits.Inc()
		e.pins++
		p.moveToFrontLocked(e)
		p.mu.Unlock()
		<-e.done
		if e.err != nil {
			err := e.err
			p.mu.Lock()
			e.pins--
			p.mu.Unlock()
			return nil, err
		}
		return &Handle{p: p, e: e}, nil
	}
	p.misses++
	p.mMisses.Inc()
	e := &entry{key: key, pins: 1, done: make(chan struct{})}
	p.entries[key] = e
	p.pushFrontLocked(e)
	p.mu.Unlock()

	b, err := load()

	p.mu.Lock()
	if err != nil {
		e.err = err
		e.pins--
		p.removeLocked(e)
		p.mu.Unlock()
		close(e.done)
		return nil, err
	}
	e.bytes = b
	e.size = int64(len(b))
	p.used += e.size
	if p.used > p.budget {
		p.evictLocked()
	}
	p.mu.Unlock()
	close(e.done)
	return &Handle{p: p, e: e}, nil
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{
		Hits: p.hits, Misses: p.misses, Evictions: p.evictions,
		Used: p.used, Budget: p.budget, Entries: len(p.entries),
	}
	for _, e := range p.entries {
		if e.pins > 0 {
			s.Pinned++
		}
	}
	return s
}

// Invalidate drops every resident page of segment seg (called on
// segment close). Pinned pages of other segments are untouched.
func (p *Pool) Invalidate(seg uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, e := range p.entries {
		if k.Seg == seg && e.pins == 0 {
			p.removeLocked(e)
			p.used -= e.size
		}
	}
}

// evictLocked drops unpinned pages from the LRU tail until the pool is
// within budget (or only pinned pages remain). Caller holds mu.
func (p *Pool) evictLocked() {
	e := p.tail
	for e != nil && p.used > p.budget {
		prev := e.prev
		if e.pins == 0 {
			p.removeLocked(e)
			p.used -= e.size
			p.evictions++
			p.mEvictions.Inc()
		}
		e = prev
	}
}

func (p *Pool) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

func (p *Pool) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if p.head == e {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if p.tail == e {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(p.entries, e.key)
}

func (p *Pool) moveToFrontLocked(e *entry) {
	if p.head == e {
		return
	}
	// Unlink (without deleting from the map) and relink at the head.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if p.tail == e {
		p.tail = e.prev
	}
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

// String renders the stats for logs.
func (s PoolStats) String() string {
	return fmt.Sprintf("pool{hits=%d misses=%d evictions=%d used=%d/%d entries=%d pinned=%d}",
		s.Hits, s.Misses, s.Evictions, s.Used, s.Budget, s.Entries, s.Pinned)
}
