package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestReuseIsFree holds the cost model's first law on both backings,
// counted rather than clocked: a zoom revisit served from the map cache
// evaluates no distance and reads no page, and a rollback builds nothing
// — it returns the parent's map itself — and reads no page either. Page
// reads are buffer-pool lookups (hits plus misses) over the segment; the
// in-memory table has no pool, so there only the distances are counted.
func TestReuseIsFree(t *testing.T) {
	mem, seg := openLaborBoth(t, 3000, 41)
	for _, tc := range []struct {
		name string
		rel  store.Relation
	}{{"table", mem}, {"segment", seg}} {
		t.Run(tc.name, func(t *testing.T) {
			lookups := func(fn func()) uint64 {
				t.Helper()
				if tc.rel != store.Relation(seg) {
					fn()
					return 0
				}
				before := seg.PoolStats()
				fn()
				after := seg.PoolStats()
				return after.Hits + after.Misses - before.Hits - before.Misses
			}
			e, err := NewExplorer(tc.rel, Options{Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			selected, err := e.SelectTheme(0)
			if err != nil {
				t.Fatal(err)
			}
			leaf := largestLeaf(selected)
			zoomed, err := e.Zoom(leaf...)
			if err != nil {
				t.Fatal(err)
			}

			if got := lookups(func() { err = e.Rollback() }); err != nil || got != 0 {
				t.Fatalf("rollback: %d pool lookups, err %v", got, err)
			}
			if e.CurrentMap() != selected {
				t.Fatal("rollback did not return the parent's map itself")
			}

			tr := obs.NewTrace(obs.ClockAt(func() time.Time { return time.Time{} }))
			var m *Map
			got := lookups(func() {
				var b *MapBuild
				if b, err = e.Prepare(Action{Kind: ActionZoom, Path: leaf}); err != nil {
					return
				}
				if m, err = b.Run(obs.WithTrace(context.Background(), tr), nil); err != nil {
					return
				}
				err = e.ApplyBuild(b, m)
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := tr.Snapshot()
			if n := snap.Counters["oracleDistEvals"]; n != 0 || got != 0 {
				t.Errorf("zoom revisit: %d distance evaluations, %d pool lookups; want none", n, got)
			}
			if snap.Attrs["reuse"] != string(ReuseMapHit) || m != zoomed {
				t.Errorf("zoom revisit: reuse %q, same map %v; want a hit on the cached map", snap.Attrs["reuse"], m == zoomed)
			}
		})
	}
}
