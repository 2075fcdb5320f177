package core

import (
	"sync"
	"testing"
)

// TestCacheTierCounterConservation drives several explorers through a
// navigation workload concurrently (run under -race via `make
// race-store`) and checks the cache counters against their conservation
// laws:
//
//   - every prepared build consults the cache exactly once, so
//     Hits + Misses == builds prepared;
//   - only a miss can derive, so Derived <= Misses (the
//     degenerate-overlap demotion takes a build out of Derived, never
//     out of Misses);
//   - entries only follow misses, so Evictions <= Misses, and
//     Entries <= Capacity.
func TestCacheTierCounterConservation(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tbl, _, _ := laborTable(240, 7)
			e, err := NewExplorer(tbl, Options{
				Seed: seed, MapCacheSize: 2, DerivedSampleMin: 10,
			})
			if err != nil {
				t.Error(err)
				return
			}
			builds := 0
			themes := len(e.Themes())
			if themes > 3 {
				themes = 3
			}
			for i := 0; i < themes; i++ {
				if _, err := e.SelectTheme(i); err != nil {
					t.Errorf("seed %d select %d: %v", seed, i, err)
					return
				}
				builds++
				if _, err := e.Zoom(leafPath(t, e)...); err != nil {
					t.Errorf("seed %d zoom: %v", seed, err)
					return
				}
				builds++
				if err := e.Rollback(); err != nil {
					t.Errorf("seed %d rollback: %v", seed, err)
					return
				}
				if err := e.Rollback(); err != nil {
					t.Errorf("seed %d rollback: %v", seed, err)
					return
				}
			}
			// Revisits: some of these hit the small cache, the rest churn
			// it (capacity 2 forces evictions).
			for i := 0; i < themes; i++ {
				if _, err := e.SelectTheme(i); err != nil {
					t.Errorf("seed %d re-select %d: %v", seed, i, err)
					return
				}
				builds++
				if err := e.Rollback(); err != nil {
					t.Errorf("seed %d rollback: %v", seed, err)
					return
				}
			}

			s := e.ReuseStats().Map
			if got := s.Hits + s.Misses; got != builds {
				t.Errorf("seed %d: hits %d + misses %d = %d, want %d lookups",
					seed, s.Hits, s.Misses, got, builds)
			}
			if s.Derived > s.Misses {
				t.Errorf("seed %d: derived %d > misses %d (only a miss derives)", seed, s.Derived, s.Misses)
			}
			if s.Evictions > s.Misses {
				t.Errorf("seed %d: evictions %d > misses %d (inserts only follow misses)",
					seed, s.Evictions, s.Misses)
			}
			if s.Entries > s.Capacity {
				t.Errorf("seed %d: entries %d > capacity %d", seed, s.Entries, s.Capacity)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}
