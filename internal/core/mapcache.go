package core

// DefaultMapCacheSize is the default capacity (entries) of the
// zoom-aware map cache.
const DefaultMapCacheSize = 16

// mapKey identifies one cached map build. Two builds share an entry iff
// they cluster the same selection (row fingerprint + count), under the
// same theme, with the same effective clustering configuration — the
// keying rule of the zoom cache. The session dimension of the key is
// implicit: every Explorer owns its own cache.
type mapKey struct {
	rows   uint64 // the selection's store.RowSet.Fingerprint
	n      int    // row count, a cheap collision guard
	theme  int    // Theme.ID (themes are immutable once detected)
	config uint64 // fingerprint of the build-relevant Options
}

// mapCache is a small LRU of finished maps, owned by one Explorer and
// accessed only under whatever lock guards the Explorer (the session
// mutex at the server tier), so it needs no locking of its own.
type mapCache struct {
	lru          *lruCache[mapKey, *Map]
	hits, misses int
}

func newMapCache(capacity int) *mapCache {
	return &mapCache{lru: newLRU[mapKey, *Map](capacity)}
}

// get returns the cached map for the key, or nil, updating the LRU order
// and the hit/miss counters.
func (c *mapCache) get(k mapKey) *Map {
	if m, ok := c.lru.get(k); ok {
		c.hits++
		return m
	}
	c.misses++
	return nil
}

// put stores a finished map, evicting the least recently used entries
// beyond capacity.
func (c *mapCache) put(k mapKey, m *Map) { c.lru.put(k, m) }

// cloneForReuse returns a copy of a cached map with a fresh region
// tree, so a cache hit behaves like a fresh build: navigation states
// never share mutable regions, and annotations made on one state can
// neither leak into a later re-zoom nor be mutated through it.
// Annotations are dropped (a fresh build has none); the routing (so
// every region's rows, and their fingerprint, are built once across the
// original and all its clones), Split and Condition are shared — they
// are read-only once built.
func cloneForReuse(m *Map) *Map {
	out := *m
	out.Root = cloneRegion(m.Root)
	return &out
}

func cloneRegion(r *Region) *Region {
	out := *r
	out.Annotations = nil
	if len(r.Children) > 0 {
		out.Children = make([]*Region, len(r.Children))
		for i, c := range r.Children {
			out.Children[i] = cloneRegion(c)
		}
	}
	return &out
}
