package segment

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fixedLoad returns a loader producing size bytes stamped with the key.
func fixedLoad(k byte, size int) func() ([]byte, error) {
	return func() ([]byte, error) {
		b := make([]byte, size)
		for i := range b {
			b[i] = k
		}
		return b, nil
	}
}

func TestPoolHitMissCounters(t *testing.T) {
	p := NewPoolObs(1<<20, nil)
	h1, err := p.Get(Key{1, 0}, fixedLoad(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	h2, err := p.Get(Key{1, 0}, fixedLoad(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", s)
	}
	if s.Used != 100 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 100 bytes resident in 1 entry", s)
	}
}

func TestPoolByteBudgetAccounting(t *testing.T) {
	p := NewPoolObs(250, nil)
	for i := 0; i < 5; i++ {
		h, err := p.Get(Key{1, i}, fixedLoad(byte(i), 100))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	s := p.Stats()
	if s.Used > 250 {
		t.Fatalf("used %d exceeds budget 250 with nothing pinned", s.Used)
	}
	if s.Used != 200 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want exactly 2 × 100 bytes resident", s)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
}

func TestPoolLRUEvictionOrder(t *testing.T) {
	p := NewPoolObs(300, nil)
	get := func(page int) {
		t.Helper()
		h, err := p.Get(Key{1, page}, fixedLoad(byte(page), 100))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	get(0)
	get(1)
	get(2)
	get(0) // 0 becomes most recent; LRU order is now 1, 2, 0
	get(3) // evicts 1
	s := p.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// Re-get 0, 2, 3: all hits. Re-get 1: a miss (it was the LRU victim).
	before := p.Stats()
	get(0)
	get(2)
	get(3)
	if got := p.Stats().Hits - before.Hits; got != 3 {
		t.Fatalf("got %d hits on resident pages, want 3", got)
	}
	get(1)
	if got := p.Stats().Misses - before.Misses; got != 1 {
		t.Fatalf("evicted page came back without a miss (misses delta %d)", got)
	}
}

func TestPoolPinningBlocksEviction(t *testing.T) {
	p := NewPoolObs(200, nil)
	h0, err := p.Get(Key{1, 0}, fixedLoad(0, 100)) // pinned
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p.Get(Key{1, 1}, fixedLoad(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()
	// A third page overflows the budget. Page 0 is pinned and page 1 is
	// older than page 2, so page 1 must be the victim.
	h2, err := p.Get(Key{1, 2}, fixedLoad(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if got := p.Stats(); got.Evictions != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction", got)
	}
	// Page 0 must still be resident (a hit), even though it was the
	// least recently used.
	before := p.Stats().Hits
	h, err := p.Get(Key{1, 0}, func() ([]byte, error) {
		return nil, fmt.Errorf("page 0 was evicted while pinned")
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Hits != before+1 {
		t.Fatal("pinned page was not served from cache")
	}
	h.Release()
	h0.Release()

	// With everything unpinned the pool trims back under budget.
	if s := p.Stats(); s.Used > s.Budget {
		t.Fatalf("pool stayed over budget after release: %+v", s)
	}
}

func TestPoolPinnedMayOvershootUntilRelease(t *testing.T) {
	p := NewPoolObs(150, nil)
	h0, _ := p.Get(Key{1, 0}, fixedLoad(0, 100))
	h1, err := p.Get(Key{1, 1}, fixedLoad(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Used != 200 {
		t.Fatalf("used = %d, want transient overshoot 200 with both pages pinned", s.Used)
	}
	h0.Release()
	h1.Release()
	if s := p.Stats(); s.Used > 150 {
		t.Fatalf("used = %d after release, want <= budget", s.Used)
	}
}

// TestPoolZeroBudget mirrors the PR 6 LRU crash class: a cache with
// cap <= 0 must stay correct (cache nothing), not crash or wedge.
func TestPoolZeroBudget(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		p := NewPoolObs(budget, nil)
		for i := 0; i < 3; i++ {
			h, err := p.Get(Key{1, 7}, fixedLoad(7, 64))
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Bytes()) != 64 || h.Bytes()[0] != 7 {
				t.Fatalf("budget %d: wrong bytes", budget)
			}
			h.Release()
			h.Release() // double release must be harmless
		}
		s := p.Stats()
		if s.Used != 0 || s.Entries != 0 {
			t.Fatalf("budget %d: cached anyway: %+v", budget, s)
		}
		if s.Misses != 3 {
			t.Fatalf("budget %d: misses = %d, want 3", budget, s.Misses)
		}
	}
}

func TestPoolLoadErrorPropagates(t *testing.T) {
	p := NewPoolObs(1<<20, nil)
	boom := fmt.Errorf("disk gone")
	if _, err := p.Get(Key{1, 0}, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failed entry must not linger: a retry reloads.
	h, err := p.Get(Key{1, 0}, fixedLoad(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if s := p.Stats(); s.Entries != 1 || s.Used != 10 {
		t.Fatalf("stats after failed-then-successful load: %+v", s)
	}
}

func TestPoolInvalidate(t *testing.T) {
	p := NewPoolObs(1<<20, nil)
	for i := 0; i < 3; i++ {
		h, _ := p.Get(Key{1, i}, fixedLoad(byte(i), 50))
		h.Release()
	}
	h, _ := p.Get(Key{2, 0}, fixedLoad(0xee, 50))
	h.Release()
	p.Invalidate(1)
	s := p.Stats()
	if s.Entries != 1 || s.Used != 50 {
		t.Fatalf("stats after invalidate = %+v, want only segment 2's page", s)
	}
}

// TestPoolConcurrentScan is the -race stress: many goroutines scanning
// overlapping page ranges through a small pool, hammering load dedup,
// eviction and the counters at once.
func TestPoolConcurrentScan(t *testing.T) {
	p := NewPoolObs(32*64, nil) // room for 32 of 128 pages
	const pages, workers, rounds = 128, 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for pg := 0; pg < pages; pg++ {
					h, err := p.Get(Key{1, pg}, fixedLoad(byte(pg), 64))
					if err != nil {
						t.Error(err)
						return
					}
					b := h.Bytes()
					if len(b) != 64 || b[0] != byte(pg) || b[63] != byte(pg) {
						t.Errorf("worker %d page %d: corrupt bytes", w, pg)
						h.Release()
						return
					}
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Pinned != 0 {
		t.Fatalf("pages left pinned after scan: %+v", s)
	}
	if s.Used > s.Budget {
		t.Fatalf("pool over budget after scan: %+v", s)
	}
	if s.Hits+s.Misses != pages*workers*rounds {
		t.Fatalf("hits %d + misses %d != %d gets", s.Hits, s.Misses, pages*workers*rounds)
	}
}

// TestPoolConcurrentSingleFlight checks load dedup: concurrent readers
// of one cold page must trigger exactly one load.
func TestPoolConcurrentSingleFlight(t *testing.T) {
	p := NewPoolObs(1<<20, nil)
	var loads int32
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h, err := p.Get(Key{1, 0}, func() ([]byte, error) {
				mu.Lock()
				loads++
				mu.Unlock()
				return make([]byte, 8), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		}()
	}
	close(start)
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loads = %d, want 1 (single flight)", loads)
	}
}

// cyclingGets returns a Get/Release cycle over pages pages of size
// bytes each, in order, through loaders that hand back preallocated
// bytes, so whatever the cycle allocates is the pool's own.
func cyclingGets(tb testing.TB, p *Pool, pages, size int) func() {
	loads := make([]func() ([]byte, error), pages)
	for i := range loads {
		b := bytes.Repeat([]byte{byte(i)}, size)
		loads[i] = func() ([]byte, error) { return b, nil }
	}
	next := 0
	return func() {
		h, err := p.Get(Key{1, next}, loads[next])
		if err != nil {
			tb.Fatal(err)
		}
		if b := h.Bytes(); len(b) != size || b[0] != byte(next) {
			tb.Fatalf("page %d: wrong bytes", next)
		}
		h.Release()
		next = (next + 1) % pages
	}
}

// TestPoolMissAllocatesNothing: once the pool has spent entries to
// reuse, a miss (load, insert, evict) and a hit allocate nothing.
func TestPoolMissAllocatesNothing(t *testing.T) {
	const pages, size = 8, 64
	for _, c := range []struct {
		name     string
		budget   int64
		hit      bool
		perCycle float64
	}{
		// Room for half the pages: every Get of the cycle misses.
		{"miss", pages / 2 * size, false, 0},
		// Room for all of them: every Get after the first round hits.
		{"hit", pages * size, true, 0},
	} {
		p := NewPoolObs(c.budget, nil)
		cycle := cyclingGets(t, p, pages, size)
		for i := 0; i < pages; i++ {
			cycle()
		}
		before := p.Stats()
		if got := testing.AllocsPerRun(100, cycle); got != c.perCycle {
			t.Errorf("%s: %v allocations per Get/Release, want %v", c.name, got, c.perCycle)
		}
		s := p.Stats()
		if hits := s.Hits - before.Hits; (hits == 0) == c.hit || (s.Misses-before.Misses == 0) != c.hit {
			t.Fatalf("%s: %d hits, %d misses: the cycle is not the case it names", c.name, hits, s.Misses-before.Misses)
		}
	}
}

// freeLen counts the pool's spent entries.
func freeLen(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for e := p.free; e != nil; e = e.next {
		n++
	}
	return n
}

// resident returns the entry holding key (nil when none does).
func resident(p *Pool, key Key) *entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[key]
}

// TestPoolRecyclesOnlyReleasedEntries: an entry is reused only once it
// is out of the map and unpinned — a failed load's after its last
// waiter, an evicted or invalidated page's at once, a pinned page's
// never — and a handle's bytes outlive the reuse of its entry.
func TestPoolRecyclesOnlyReleasedEntries(t *testing.T) {
	const size = 100
	p := NewPoolObs(size, nil) // room for one unpinned page

	// Sixteen readers of one page whose load fails: one load, sixteen
	// errors, and the entry is spent only after the last of them.
	boom := fmt.Errorf("disk gone")
	gate, started := make(chan struct{}), make(chan struct{})
	var loads atomic.Int32
	var wg sync.WaitGroup
	errs := make([]error, 16)
	get := func(w int) {
		defer wg.Done()
		_, errs[w] = p.Get(Key{1, 0}, func() ([]byte, error) {
			if loads.Add(1) == 1 {
				close(started)
			}
			<-gate
			return nil, boom
		})
	}
	wg.Add(1)
	go get(0)
	<-started
	for w := 1; w < 16; w++ {
		wg.Add(1)
		go get(w)
	}
	for p.Stats().Hits < 15 { // every other reader is waiting on the load
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	for w, err := range errs {
		if err != boom {
			t.Fatalf("reader %d: err = %v, want %v", w, err, boom)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads, want 1", n)
	}
	if s := p.Stats(); s.Entries != 0 || s.Pinned != 0 || s.Used != 0 {
		t.Fatalf("failed load left %+v", s)
	}
	if n := freeLen(p); n != 1 {
		t.Fatalf("%d spent entries after the failed load, want 1", n)
	}

	// The next miss reuses that entry, with the right bytes.
	spent := p.free
	h1, err := p.Get(Key{1, 1}, fixedLoad(1, size))
	if err != nil {
		t.Fatal(err)
	}
	if resident(p, Key{1, 1}) != spent || freeLen(p) != 0 {
		t.Fatal("a miss allocated an entry while a spent one was free")
	}
	b1 := h1.Bytes()
	if !bytes.Equal(b1, bytes.Repeat([]byte{1}, size)) {
		t.Fatal("reused entry served wrong bytes")
	}
	h1.Release()

	// Page 2, kept pinned, evicts page 1, whose entry is spent at once;
	// page 3 takes it. The released handle's bytes are still page 1's,
	// and releasing it again touches nothing of page 3.
	h2, err := p.Get(Key{1, 2}, fixedLoad(2, size))
	if err != nil {
		t.Fatal(err)
	}
	if resident(p, Key{1, 1}) != nil || freeLen(p) != 1 || p.free != spent {
		t.Fatal("the evicted page's entry was not spent at once")
	}
	h3, err := p.Get(Key{1, 3}, fixedLoad(3, size))
	if err != nil {
		t.Fatal(err)
	}
	if resident(p, Key{1, 3}) != spent {
		t.Fatal("the spent entry was not reused")
	}
	if !bytes.Equal(h1.Bytes(), bytes.Repeat([]byte{1}, size)) || !bytes.Equal(h3.Bytes(), bytes.Repeat([]byte{3}, size)) {
		t.Fatal("a handle's bytes changed when its entry was reused")
	}
	h1.Release()
	if s := p.Stats(); s.Pinned != 2 {
		t.Fatalf("a second Release of a released handle unpinned another page: %+v", s)
	}
	h3.Release()

	// Page 2 stays pinned through evictions and an Invalidate of its
	// segment: its entry is never handed to another page.
	pinned := resident(p, Key{1, 2})
	for pg := 4; pg < 6; pg++ {
		h, err := p.Get(Key{1, pg}, fixedLoad(byte(pg), size))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	p.Invalidate(1)
	for pg := 6; pg < 9; pg++ {
		h, err := p.Get(Key{1, pg}, fixedLoad(byte(pg), size))
		if err != nil {
			t.Fatal(err)
		}
		if resident(p, Key{1, pg}) == pinned {
			t.Fatalf("page %d took the entry of pinned page 2", pg)
		}
		h.Release()
	}
	h, err := p.Get(Key{1, 2}, func() ([]byte, error) {
		return nil, fmt.Errorf("pinned page 2 was dropped")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Bytes(), bytes.Repeat([]byte{2}, size)) {
		t.Fatal("pinned page 2 serves wrong bytes")
	}
	h.Release()
	h2.Release()
	if s := p.Stats(); s.Pinned != 0 || s.Used > s.Budget {
		t.Fatalf("after every release: %+v", s)
	}
}

// BenchmarkPoolGet times one Get/Release of a 4 KB page on a warm pool
// whose loader hands back preallocated bytes: hit on a pool holding
// every page, miss (load, insert, evict) on one holding half of them.
func BenchmarkPoolGet(b *testing.B) {
	const pages, size = 64, 4096
	for _, c := range []struct {
		name   string
		budget int64
	}{{"hit", pages * size}, {"miss", pages / 2 * size}} {
		b.Run(c.name, func(b *testing.B) {
			p := NewPoolObs(c.budget, nil)
			cycle := cyclingGets(b, p, pages, size)
			for i := 0; i < pages; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
