package core

import (
	"container/list"

	"repro/internal/store"
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
	rows   uint64 // the selection's store.RowSet.Fingerprint
	n      int    // row count, a cheap collision guard
	theme  int    // Theme.ID (themes are immutable once detected)
	config uint64 // fingerprint of the build-relevant Options
}

// mapCache is the session's one reuse cache: a small LRU of finished
// maps, each cold one beside the artifact its build fitted, so a miss
// can derive its sample and vectors from a cached parent's (see
// findDerivable). An artifact is evicted together with its map. The
// cache is owned by one Explorer and accessed only under whatever lock
// guards the Explorer (the session mutex at the server tier), so it
// needs no locking of its own.
type mapCache struct {
	cap   int
	order *list.List // of *cacheEntry, front = most recently used
	byKey map[mapKey]*list.Element

	// derived counts the misses that derived their sample from a cached
	// parent: a subset of misses.
	hits, derived, misses, evictions int
}

// cacheEntry is one cached build: its map and, for a cold build that
// fitted a pipeline, its artifact (nil otherwise — a derived artifact
// re-slices its parent's vectors, so keeping it would add nothing the
// parent entry does not already provide).
type cacheEntry struct {
	key mapKey
	m   *Map
	art *buildArtifact
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

// put stores (or replaces) a finished map with its artifact, evicting
// least recently used entries beyond capacity.
func (c *mapCache) put(k mapKey, m *Map, art *buildArtifact) {
	ent := &cacheEntry{key: k, m: m, art: art}
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

// findDerivable scans the cached artifacts of the theme for the one
// whose sample overlaps rows the most, returning it with the overlapping
// positions (indices into the parent's sampleRows/vecs, ascending) when
// the overlap reaches minNeeded — the derivation policy's floor — and
// bumping its entry to most recently used. The overlap is
// RowSet.Intersect of the sample: one membership test per sample row,
// O(sample · log rows) at most per cached artifact however large the
// selection.
func (c *mapCache) findDerivable(theme int, rows *store.RowSet, minNeeded int) (*buildArtifact, []int) {
	var best *list.Element
	var bestPos []int
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.art == nil || ent.key.theme != theme || len(ent.art.sampleRows) <= len(bestPos) {
			continue // no artifact, another theme, or cannot beat the current best
		}
		if pos := rows.Intersect(ent.art.sampleRows); len(pos) >= minNeeded && len(pos) > len(bestPos) {
			best, bestPos = el, pos
		}
	}
	if best == nil {
		return nil, nil
	}
	c.order.MoveToFront(best)
	return best.Value.(*cacheEntry).art, bestPos
}

// TierStats describes the reuse cache (counters are lifetime totals for
// the owning Explorer).
type TierStats struct {
	// Hits counts finished maps served as-is.
	Hits int `json:"hits"`
	// Derived counts the misses whose sample and vectors were derived
	// from a cached parent artifact.
	Derived int `json:"derived,omitempty"`
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
