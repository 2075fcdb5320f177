package core

import "testing"

// The map cache's LRU mechanics, pinned directly: non-positive
// capacities, eviction order under access and re-insertion, and the
// eviction counter the wire reports. Entry i is keyed mapKey{n: i}.

func lruKey(i int) mapKey { return mapKey{n: i} }

// lruKeys lists the cached entries' ids, most recently used first.
func lruKeys(c *mapCache) []int {
	var out []int
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key.n)
	}
	return out
}

func TestLRUZeroCapacityStoresNothing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newMapCache(capacity)
		for i := 0; i < 3; i++ {
			c.put(lruKey(i), &Map{})
			if c.get(lruKey(i)) != nil {
				t.Fatalf("cap %d: get(%d) hit; a non-positive capacity must cache nothing", capacity, i)
			}
		}
		if c.order.Len() != 0 {
			t.Fatalf("cap %d: len = %d, want 0", capacity, c.order.Len())
		}
		if c.evictions != 3 {
			t.Fatalf("cap %d: evictions = %d, want 3 (each insert immediately evicted)", capacity, c.evictions)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newMapCache(3)
	maps := []*Map{{K: 1}, {K: 2}, {K: 3}, {K: 4}}
	for i := 0; i < 3; i++ {
		c.put(lruKey(i), maps[i])
	}
	// Touch 0: it becomes most recently used, so 1 is now the victim.
	if got := c.get(lruKey(0)); got != maps[0] {
		t.Fatalf("get(0) = %v", got)
	}
	c.put(lruKey(3), maps[3])
	if c.get(lruKey(1)) != nil {
		t.Fatal("1 survived; LRU should have evicted it after 0 was touched")
	}
	for _, i := range []int{0, 2, 3} {
		if c.get(lruKey(i)) == nil {
			t.Fatalf("%d evicted; want it retained", i)
		}
	}
	if got := c.evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestLRUReinsertMovesToFrontWithoutEviction(t *testing.T) {
	c := newMapCache(3)
	for i := 0; i < 3; i++ {
		c.put(lruKey(i), &Map{K: i})
	}
	// Re-inserting an existing key replaces in place: no eviction, new
	// value, bumped to most recently used.
	again := &Map{K: 10}
	c.put(lruKey(0), again)
	if c.order.Len() != 3 || c.evictions != 0 {
		t.Fatalf("len=%d evictions=%d after re-insert, want 3 and 0", c.order.Len(), c.evictions)
	}
	if got := lruKeys(c); got[0] != 0 {
		t.Fatalf("MRU order after re-insert = %v, want 0 first", got)
	}
	if got := c.get(lruKey(0)); got != again {
		t.Fatalf("entry 0 = %v after re-insert, want the new map", got)
	}
	// 1 is now least recently used (0 was re-inserted, then read; 2 sits
	// between): inserting 3 must evict 1.
	c.put(lruKey(3), &Map{})
	if c.get(lruKey(1)) != nil {
		t.Fatal("1 survived; re-insertion of 0 should have left 1 as the victim")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
}

func TestLRUEvictionCounterAccumulates(t *testing.T) {
	c := newMapCache(2)
	for i := 0; i < 10; i++ {
		c.put(lruKey(i), &Map{})
	}
	if c.order.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.order.Len())
	}
	if c.evictions != 8 {
		t.Fatalf("evictions = %d, want 8 (10 inserts into a 2-slot cache)", c.evictions)
	}
	// The survivors are the two most recent inserts, newest first.
	if got := lruKeys(c); got[0] != 9 || got[1] != 8 {
		t.Fatalf("surviving keys = %v, want [9 8]", got)
	}
}
