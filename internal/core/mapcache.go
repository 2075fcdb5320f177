package core

import "container/list"

// DefaultMapCacheSize is the default capacity (entries) of the
// zoom-aware map cache.
const DefaultMapCacheSize = 16

// mapKey identifies one cached map build. Two builds share an entry iff
// they cluster the same selection (row fingerprint + count) under the
// same theme — the keying rule of the zoom cache. The session and the
// options are implicit: every Explorer owns its own cache, and the
// options are its dataset's, fixed before any session opens.
type mapKey struct {
	rows  uint64 // the selection's store.RowSet.Fingerprint
	n     int    // row count, a cheap collision guard
	theme int    // Theme.ID (themes are immutable once detected)
}

// mapCache is the session's one reuse cache: a small LRU of finished
// maps, which a hit serves by reference (see Map). An entry holds only
// its map — never its build's sample or vectors — so a miss builds cold.
// The cache is owned by one Explorer and accessed only under whatever
// lock guards the Explorer (the session mutex at the server tier), so it
// needs no locking of its own.
type mapCache struct {
	cap   int
	order *list.List // of *cacheEntry, front = most recently used
	byKey map[mapKey]*list.Element

	hits, misses, evictions int
}

// cacheEntry is one cached map under its key.
type cacheEntry struct {
	key mapKey
	m   *Map
}

func newMapCache(capacity int) *mapCache {
	return &mapCache{cap: capacity, order: list.New(), byKey: make(map[mapKey]*list.Element)}
}

// get returns the cached map for the key, or nil, bumping it to most
// recently used and counting the hit or miss.
func (c *mapCache) get(k mapKey) *Map {
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).m
}

// put stores (or replaces) a finished map, evicting least recently used
// entries beyond capacity.
func (c *mapCache) put(k mapKey, m *Map) {
	ent := &cacheEntry{key: k, m: m}
	if el, ok := c.byKey[k]; ok {
		el.Value = ent
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(ent)
	// The Len()>0 guard makes non-positive capacities mean "cache
	// nothing" instead of draining past empty and dereferencing a nil
	// Back().
	for c.order.Len() > c.cap && c.order.Len() > 0 {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// TierStats describes the reuse cache (counters are lifetime totals for
// the owning Explorer).
type TierStats struct {
	// Hits counts finished maps served as-is.
	Hits int `json:"hits"`
	// Misses counts every build that was not a hit.
	Misses int `json:"misses"`
	// Entries and Capacity describe current occupancy; Evictions counts
	// LRU evictions over the cache's lifetime.
	Entries   int `json:"entries"`
	Capacity  int `json:"capacity"`
	Evictions int `json:"evictions"`
}

// ReuseStats is the reuse-cache breakdown on the wire, under "map". See
// Explorer.ReuseStats.
type ReuseStats struct {
	Map TierStats `json:"map"`
}
