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

// entry is one resident page. While loading is set the loader is
// filling bytes/err outside the lock, and readers of the same page wait
// on the pool's loaded condition instead of loading twice. A spent
// entry — out of the map and unpinned — goes back on the pool's free
// list, so a miss reuses one rather than allocating.
type entry struct {
	key        Key
	bytes      []byte
	size       int64
	pins       int
	loading    bool
	err        error
	prev, next *entry // LRU list, head = most recent; free list via next
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
	loaded     sync.Cond // on mu; broadcast when a load finishes
	budget     int64
	used       int64
	entries    map[Key]*entry
	head, tail *entry
	free       *entry // spent entries, linked through next
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
	p.loaded.L = &p.mu
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

// Handle is a pinned page, held by value. It carries its own byte
// slice, so Bytes stays valid after Release — releasing only returns
// the page to the eviction candidate set, and the slice is kept alive
// by the caller's reference or by the segment mapping — but callers
// must not retain it past the owning segment's Close. Do not copy a
// pinned handle: release it once, through the variable Get filled. The
// zero Handle holds nothing and its Release is a no-op.
type Handle struct {
	p *Pool
	e *entry
	b []byte
}

// Bytes returns the page payload. Callers must not mutate it.
func (h *Handle) Bytes() []byte { return h.b }

// Release unpins the page. Releasing the zero handle, or one already
// released, is a no-op.
func (h *Handle) Release() {
	e := h.e
	if e == nil {
		return
	}
	h.e = nil
	p := h.p
	p.mu.Lock()
	p.unpinLocked(e)
	p.mu.Unlock()
}

// Get returns the page for key, pinned, loading it via load on a miss.
// Concurrent Gets for the same key perform one load. On load failure
// the entry is dropped and the error returned to every waiter. Neither
// a hit nor a miss allocates: a miss takes its entry from the free
// list when one is there.
func (p *Pool) Get(key Key, load func() ([]byte, error)) (Handle, error) {
	p.mu.Lock()
	if p.budget <= 0 {
		p.misses++
		p.mMisses.Inc()
		p.mu.Unlock()
		b, err := load()
		if err != nil {
			return Handle{}, err
		}
		return Handle{b: b}, nil
	}
	if e, ok := p.entries[key]; ok {
		p.hits++
		p.mHits.Inc()
		e.pins++
		p.moveToFrontLocked(e)
		for e.loading {
			p.loaded.Wait()
		}
		if e.err != nil {
			err := e.err
			p.unpinLocked(e)
			p.mu.Unlock()
			return Handle{}, err
		}
		h := Handle{p: p, e: e, b: e.bytes}
		p.mu.Unlock()
		return h, nil
	}
	p.misses++
	p.mMisses.Inc()
	e := p.free
	if e != nil {
		p.free = e.next
	} else {
		e = new(entry)
	}
	e.key, e.pins, e.loading = key, 1, true
	p.entries[key] = e
	p.pushFrontLocked(e)
	p.mu.Unlock()

	b, err := load()

	p.mu.Lock()
	e.loading = false
	p.loaded.Broadcast()
	if err != nil {
		// Out of the map now; the entry is recycled once the last
		// waiter has read err and unpinned it.
		e.err = err
		p.removeLocked(e)
		p.unpinLocked(e)
		p.mu.Unlock()
		return Handle{}, err
	}
	e.bytes = b
	e.size = int64(len(b))
	p.used += e.size
	if p.used > p.budget {
		p.evictLocked()
	}
	p.mu.Unlock()
	return Handle{p: p, e: e, b: b}, nil
}

// unpinLocked drops one pin of e. A failed load's entry, already out of
// the map, is recycled with its last pin; a resident page's last pin
// lets the pool trim back under budget. Caller holds mu.
func (p *Pool) unpinLocked(e *entry) {
	e.pins--
	if e.pins > 0 {
		return
	}
	if e.err != nil {
		p.recycleLocked(e)
	} else if p.used > p.budget {
		p.evictLocked()
	}
}

// recycleLocked puts a spent entry — out of the map and unpinned — on
// the free list, dropping its page and error. Caller holds mu.
func (p *Pool) recycleLocked(e *entry) {
	*e = entry{next: p.free}
	p.free = e
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
			p.recycleLocked(e)
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
			p.recycleLocked(e)
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
