package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/segment"
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

// TestBuildWorkIsLinear is the cost model's linear-work law at the
// build: above PAMThreshold a cold select is CLARA over a lazy oracle,
// whose samples and Monte-Carlo rounds are drawn once per sweep and
// sized by k alone, whose full-data assignments read k medoid rows per
// sample, and whose per-cluster silhouettes come from the same rounds,
// so the distances the build evaluates (its trace's oracleDistEvals)
// grow linearly in the sample. At SampleSize 2 500, 5 000 and 10 000,
// on both backings, doubling the sample may at most multiply the count
// by 2.2. Every distance an oracle serves is counted, so an O(n²) pass
// anywhere in the build — a matrix oracle above the crossover, or the
// exact per-cluster silhouette pass — breaks the law (a ratio near 4).
func TestBuildWorkIsLinear(t *testing.T) {
	mem, seg := openLaborBoth(t, 12000, 43)
	for _, tc := range []struct {
		name string
		rel  store.Relation
	}{{"table", mem}, {"segment", seg}} {
		t.Run(tc.name, func(t *testing.T) {
			evals := func(sample int) int64 {
				t.Helper()
				e, err := NewExplorer(tc.rel, Options{Seed: 43, SampleSize: sample, DependencySampleRows: 1000, MapCacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
				if err != nil {
					t.Fatal(err)
				}
				tr := obs.NewTrace(obs.ClockAt(func() time.Time { return time.Time{} }))
				m, err := b.Run(obs.WithTrace(context.Background(), tr), nil)
				if err != nil {
					t.Fatal(err)
				}
				snap := tr.Snapshot()
				if m.SampleSize != sample || snap.Attrs["oracle"] != "lazy" {
					t.Fatalf("sample %d: clustered %d objects over a %q oracle, want %d over a lazy one", sample, m.SampleSize, snap.Attrs["oracle"], sample)
				}
				return snap.Counters["oracleDistEvals"]
			}
			prev := evals(2500)
			for _, n := range []int{5000, 10000} {
				got := evals(n)
				t.Logf("sample %d: %d evaluations (sample %d: %d)", n, got, n/2, prev)
				if float64(got) > 2.2*float64(prev) {
					t.Errorf("sample %d: a cold select made %d evaluations, %.2f× the %d at sample %d; the law allows 2.2×", n, got, float64(got)/float64(prev), prev, n/2)
				}
				prev = got
			}
		})
	}
}

// TestColdSegmentBuildReadsEachPageOncePerPass is the cost model's page
// law on a segment, counted in buffer-pool lookups (hits plus misses):
// a cold build reads its theme's columns in two passes, the sample's
// gather and the selection's route through the description tree, and
// each pass fetches a page once, so a cold select and a cold zoom look
// up at most 2 × (the theme columns' pages in the selection's span).
// Key detection, at theme detection, reads a string column's prefix
// once and an integer column's twice: its range, then its count.
func TestColdSegmentBuildReadsEachPageOncePerPass(t *testing.T) {
	const n, rpp = 3000, 64
	tab := pinnedTable(n, 44).Table
	ids, names := make([]int64, n), make([]string, n)
	for i := range ids {
		ids[i], names[i] = int64(1000+i), fmt.Sprintf("row%d", i)
	}
	tab.MustAddColumn(store.NewIntColumnFrom("id", ids))
	tab.MustAddColumn(store.NewStringColumnFrom("name", names))
	dir := t.TempDir()
	var csv bytes.Buffer
	if err := store.WriteCSV(&csv, tab); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.csv"), csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "planted.seg")
	if _, err := store.BuildSegment(filepath.Join(dir, "planted.csv"), segPath, &store.SegmentBuildOptions{RowsPerPage: rpp}); err != nil {
		t.Fatal(err)
	}
	seg, err := store.OpenSegmentTableWith(segPath, segment.NewPoolObs(64<<10, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	lookups := func(fn func()) int {
		before := seg.PoolStats()
		fn()
		after := seg.PoolStats()
		return int(after.Hits + after.Misses - before.Hits - before.Misses)
	}

	pages := (n + rpp - 1) / rpp // the whole column is the key scan's prefix
	for _, tc := range []struct {
		col    string
		passes int
	}{{"id", 2}, {"name", 1}} {
		var key bool
		got := lookups(func() { key = store.IsLikelyKey(seg.ColumnByName(tc.col)) })
		t.Logf("IsLikelyKey(%s): %d lookups over %d pages", tc.col, got, pages)
		if !key || got > tc.passes*pages {
			t.Errorf("IsLikelyKey(%s) = %v in %d pool lookups; want a key in at most %d × %d", tc.col, key, got, tc.passes, pages)
		}
	}

	e, err := NewExplorer(seg, Options{Seed: 44, SampleSize: 300, MapCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	build := func(what string, a Action) *Map {
		t.Helper()
		var m *Map
		got := lookups(func() {
			var b *MapBuild
			if b, err = e.Prepare(a); err != nil {
				return
			}
			if m, err = b.Run(context.Background(), nil); err != nil {
				return
			}
			err = e.ApplyBuild(b, m)
		})
		if err != nil {
			t.Fatal(err)
		}
		rows := e.State().Rows.AppendTo(nil)
		span := rows[len(rows)-1]/rpp - rows[0]/rpp + 1
		bound := 2 * len(m.Theme.Columns) * span
		t.Logf("%s: %d lookups, bound %d (%d columns × %d pages × 2 passes)", what, got, bound, len(m.Theme.Columns), span)
		if got > bound {
			t.Errorf("%s: a cold build made %d pool lookups; the law allows %d", what, got, bound)
		}
		return m
	}
	m := build("select", Action{Kind: ActionSelect, Theme: 0})
	build("zoom", Action{Kind: ActionZoom, Path: largestLeaf(m)})
}
