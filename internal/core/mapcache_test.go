package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
)

// fingerprintRows is the cache keys' selection hash as it was first
// written, over a row list in any order: FNV-1a, 64 bit, each index as
// eight little-endian bytes, over the canonical (ascending) order. It is
// the oracle of store.RowSet.Fingerprint, which hashes a set that is
// ascending by construction.
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

// TestFingerprintRowsOrderInsensitive is the regression test for the
// cache-key canonicalization bugfix: the same row set must fingerprint
// identically however it is ordered, and distinct sets must (with
// overwhelming probability) differ.
func TestFingerprintRowsOrderInsensitive(t *testing.T) {
	rows := []int{3, 1, 4, 1590, 92, 65, 35}
	shuffled := append([]int(nil), rows...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if fingerprintRows(rows) != fingerprintRows(shuffled) {
		t.Errorf("same set, different order: fingerprints differ (%x vs %x)",
			fingerprintRows(rows), fingerprintRows(shuffled))
	}
	// Canonicalization must not collapse genuinely different sets.
	other := append([]int(nil), rows...)
	other[0] = 5
	if fingerprintRows(rows) == fingerprintRows(other) {
		t.Error("different sets share a fingerprint")
	}
	// Sorted input must not be mutated or copied into a different hash.
	asc := []int{1, 2, 3, 4}
	if fingerprintRows(asc) != fingerprintRows([]int{4, 3, 2, 1}) {
		t.Error("reversed set misses the canonical fingerprint")
	}
	if asc[0] != 1 || asc[3] != 4 {
		t.Error("fingerprintRows mutated its input")
	}
	// The engine's sets hash to the same key as any order of their rows.
	if got := store.RowsOf([]int{3, 35, 65, 92, 1590}).Fingerprint(); got != fingerprintRows([]int{92, 3, 1590, 65, 35}) {
		t.Errorf("RowSet fingerprint %x misses the canonical fingerprint", got)
	}
}

// TestMapCacheHitAcrossRowOrder: a map cached under one ordering of the
// selection must be served for the same selection in any other ordering
// — the end-to-end shape of the fingerprint bugfix.
func TestMapCacheHitAcrossRowOrder(t *testing.T) {
	c := newMapCache(4)
	rows := []int{9, 4, 7, 2}
	key := func(r []int) mapKey {
		return mapKey{rows: fingerprintRows(r), n: len(r), theme: 1, config: 42}
	}
	m := &Map{K: 2, Root: &Region{}}
	c.put(key(rows), m, nil)
	if got := c.get(key([]int{2, 4, 7, 9})); got != m {
		t.Fatal("same selection in ascending order missed the cache")
	}
	if got := c.get(key([]int{7, 9, 2, 4})); got != m {
		t.Fatal("same selection in scrambled order missed the cache")
	}
	if hits, misses := c.hits, c.misses; hits != 2 || misses != 0 {
		t.Errorf("hits/misses = %d/%d, want 2/0", hits, misses)
	}
	if got := c.get(key([]int{2, 4, 7, 8})); got != nil {
		t.Error("different selection hit the cache")
	}
}

// TestFingerprintRowsIsFNV1a pins the inlined hash, and
// store.RowSet.Fingerprint in each of its forms, to the value hash/fnv
// gives for the same bytes (each row as eight little-endian bytes):
// cache keys keep their meaning.
func TestFingerprintRowsIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 1000} {
		rows := make([]int, n)
		row := 0
		for i := range rows {
			row += 1 + rng.Intn(1<<uint(rng.Intn(40)))
			rows[i] = row
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, r := range rows {
			binary.LittleEndian.PutUint64(buf[:], uint64(r))
			h.Write(buf[:])
		}
		if got, want := fingerprintRows(rows), h.Sum64(); got != want {
			t.Errorf("%d rows: fingerprint %x, hash/fnv %x", n, got, want)
		}
		if got, want := store.RowsOf(rows).Fingerprint(), h.Sum64(); got != want {
			t.Errorf("%d rows: RowSet fingerprint %x, hash/fnv %x", n, got, want)
		}
	}
	// A range and a bitmap.
	for _, rows := range [][]int{{5, 6, 7, 8}, {0, 2, 3, 5, 6, 7, 9, 10, 12}} {
		if got, want := store.RowsOf(append([]int(nil), rows...)).Fingerprint(), fingerprintRows(rows); got != want {
			t.Errorf("%v: RowSet fingerprint %x, want %x", rows, got, want)
		}
	}
}

// TestFingerprintOncePerSelection: a selection is hashed by the first
// prepare that needs its cache key and never again — the fingerprint is
// kept by the set, and the region's set is the very one the zoom's
// state, a projection of it, a rollback-then-rezoom and every clone of
// the cached map read, so each of them keys its lookup without a pass.
func TestFingerprintOncePerSelection(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	region, err := e.CurrentMap().Root.Find(leafPath(t, e))
	if err != nil {
		t.Fatal(err)
	}
	rows := region.RowIDs()
	if _, err := e.Zoom(region.Path...); err != nil {
		t.Fatal(err)
	}
	if e.State().Rows != rows || region.RowIDs() != rows {
		t.Fatal("the zoomed state does not hold the region's set")
	}
	if want := fingerprintRows(rows.AppendTo(nil)); rows.Fingerprint() != want {
		t.Fatalf("fingerprint %x, want %x", rows.Fingerprint(), want)
	}
	// Project the zoomed state onto its own theme: the state's set keys
	// the lookup.
	b, err := e.PrepareProject(e.CurrentMap().Theme.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached() || b.rows != rows {
		t.Error("projecting the zoomed state did not key on its set")
	}
	// Roll back and zoom into the same region again: the region's set
	// keys the lookup.
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if b, err = e.PrepareZoom(region.Path...); err != nil {
		t.Fatal(err)
	}
	if !b.Cached() || b.rows != rows {
		t.Error("the revisit did not key on the region's set")
	}
	// A clone of the cached map shares the set, memo and all.
	clone, err := cloneForReuse(e.CurrentMap()).Root.Find(region.Path)
	if err != nil {
		t.Fatal(err)
	}
	if clone == region || clone.RowIDs() != rows {
		t.Error("cloneForReuse does not share the region's set")
	}
}
