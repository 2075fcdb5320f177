package core

import (
	"math"
	"sort"
)

// DefaultMapCacheSize is the default capacity (entries) of the
// zoom-aware map cache.
const DefaultMapCacheSize = 16

// mapKey identifies one cached map build. Two builds share an entry iff
// they cluster the same selection (row fingerprint + count), under the
// same theme, with the same effective clustering configuration — the
// keying rule of the zoom cache. The session dimension of the key is
// implicit: every Explorer owns its own cache.
type mapKey struct {
	rows   uint64 // FNV-1a over the selection's row indices, canonical order
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
// every region's rows are built once across the original and all its
// clones), the memoised fingerprints, Split and Condition are shared —
// they are read-only once built.
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

// fingerprintRows hashes a selection's row indices (FNV-1a, 64 bit,
// each index as eight little-endian bytes — the value hash/fnv gives).
// The fingerprint is over the canonical (ascending) order, so the same
// set of rows produced in a different order — a filter evaluated in
// another sequence, a future merge of partial selections — still hits
// the cache. Selections are ascending in practice (region rows preserve
// the base-table order), so the common case is one pass; only
// out-of-order input pays for a sorted copy.
func fingerprintRows(rows []int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	prev := math.MinInt
	for _, r := range rows {
		if r < prev {
			sorted := append([]int(nil), rows...)
			sort.Ints(sorted)
			return fingerprintRows(sorted)
		}
		prev = r
		v := uint64(r)
		h = (h ^ v&0xff) * prime64
		h = (h ^ v>>8&0xff) * prime64
		h = (h ^ v>>16&0xff) * prime64
		h = (h ^ v>>24&0xff) * prime64
		h = (h ^ v>>32&0xff) * prime64
		h = (h ^ v>>40&0xff) * prime64
		h = (h ^ v>>48&0xff) * prime64
		h = (h ^ v>>56) * prime64
	}
	return h
}

// rowsFingerprint memoises fingerprintRows on the State or Region that
// owns the rows, so a selection is hashed at most once however often
// it is zoomed into, projected or revisited.
type rowsFingerprint struct {
	sum uint64
	ok  bool
}

// of returns the fingerprint of rows, the owner's row list.
func (f *rowsFingerprint) of(rows []int) uint64 {
	if !f.ok {
		f.sum, f.ok = fingerprintRows(rows), true
	}
	return f.sum
}
