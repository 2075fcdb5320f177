package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

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
	c.put(key(rows), m)
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

// TestFingerprintRowsIsFNV1a pins the inlined hash to the value
// hash/fnv gives for the same bytes (each row as eight little-endian
// bytes): cache keys keep their meaning.
func TestFingerprintRowsIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 1000} {
		rows := make([]int, n)
		row := 0
		for i := range rows {
			row += rng.Intn(1 << uint(rng.Intn(40)))
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
	}
}

// TestFingerprintOncePerSelection: a selection is hashed by the first
// prepare that needs its cache key and never again — the region hands
// its fingerprint to the state a zoom pushes, and a revisit, a
// rollback-then-rezoom and a projection of the zoomed state reuse it.
// The test overwrites the memoised rows between prepares: had any
// later prepare hashed them again, its key would change and the map
// cache would miss.
func TestFingerprintOncePerSelection(t *testing.T) {
	e := asyncExplorer(t, Options{Seed: 1})
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	region, err := e.CurrentMap().Root.Find(leafPath(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if region.fp.ok {
		t.Fatal("region fingerprinted before anything zoomed into it")
	}
	if _, err := e.Zoom(region.Path...); err != nil {
		t.Fatal(err)
	}
	if want := fingerprintRows(region.RowIDs()); !region.fp.ok || region.fp.sum != want || e.State().fp != region.fp {
		t.Fatalf("after the zoom: region memo %+v, state memo %+v, want both {%x true}", region.fp, e.State().fp, want)
	}

	scramble := func(rows []int) (restore func()) {
		saved := append([]int(nil), rows...)
		for i := range rows {
			rows[i] = -1 - i
		}
		return func() { copy(rows, saved) }
	}
	// Project the zoomed state onto its own theme: the state's memo
	// keys the lookup.
	restore := scramble(e.State().Rows)
	b, err := e.PrepareProject(e.CurrentMap().Theme.ID)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached() {
		t.Error("projecting the zoomed state re-hashed its rows")
	}
	// Roll back and zoom into the same region again: the region's memo
	// keys the lookup.
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	restore = scramble(region.RowIDs())
	b, err = e.PrepareZoom(region.Path...)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached() {
		t.Error("the revisit re-hashed the region's rows")
	}
	// The memo survives cloneForReuse: the clone of a fingerprinted
	// region needs no pass either.
	clone, err := cloneForReuse(e.CurrentMap()).Root.Find(region.Path)
	if err != nil {
		t.Fatal(err)
	}
	if clone == region || clone.fp != region.fp {
		t.Error("cloneForReuse dropped the region's fingerprint")
	}
}
