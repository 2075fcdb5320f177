package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/store"
)

// pinnedTable is the datagen table the pinned navigations run over: two
// planted themes, so project has somewhere to go.
func pinnedTable(n int, seed int64) *datagen.Dataset {
	return datagen.PlantedThemes(n, []datagen.ThemeSpec{
		{Name: "a", Cols: 3, K: 3},
		{Name: "b", Cols: 3, K: 2, Sep: 5},
	}, rand.New(rand.NewSource(seed)))
}

// mapDigest renders a map as integers and predicate strings only: k,
// then per region path its row count, cluster id and split. No float
// the build computed (silhouette, accuracy, cost) enters, so the text is
// the same on any GOARCH.
func mapDigest(sb *strings.Builder, step string, m *Map) {
	fmt.Fprintf(sb, "%s k=%d sample=%d\n", step, m.K, m.SampleSize)
	var walk func(r *Region)
	walk = func(r *Region) {
		split := "-"
		if r.Split != nil {
			split = r.Split.String()
		}
		fmt.Fprintf(sb, " %v n=%d c=%d %s\n", r.Path, r.Count(), r.ClusterID, split)
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(m.Root)
}

// largestLeaf returns the path of the leaf holding the most rows (the
// first one on ties) — a zoom target that keeps enough tuples to
// cluster again.
func largestLeaf(m *Map) []int {
	var best *Region
	for _, l := range m.Root.Leaves() {
		if best == nil || l.Count() > best.Count() {
			best = l
		}
	}
	return best.Path
}

// assertAscending checks the ordering contract of State.Rows and
// Region.RowIDs: a selection is read in base-table row order.
func assertAscending(t *testing.T, what string, rows []int) {
	t.Helper()
	if !sort.IntsAreSorted(rows) {
		t.Fatalf("%s: rows are not ascending", what)
	}
}

// The two ways pinnedNavigation opens its session: NewExplorer, which
// detects themes for the one session, and a second session on a shared
// Dataset whose first session has already built a map.
const (
	openOwn    = "NewExplorer"
	openShared = "second session on a shared Dataset"
)

// openPinned opens a session over table the given way. The shared way
// opens two sessions on one Dataset, builds the first one's map and
// returns the second.
func openPinned(t *testing.T, table store.Relation, opts Options, open string) *Explorer {
	t.Helper()
	if open == openOwn {
		e, err := NewExplorer(table, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	d, err := NewDataset(table, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open().SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	return d.Open()
}

// pinnedNavigation opens a session the given way, drives select → zoom →
// project → rollback → zoom → filter and returns the textual digest of
// every map on the way, asserting on the way that every state's and
// region's rows are ascending (a region's read through RowIDs, as many
// as it counts), and that the first zoom builds cold.
func pinnedNavigation(t *testing.T, n int, seed int64, opts Options, open string) string {
	t.Helper()
	e := openPinned(t, pinnedTable(n, seed).Table, opts, open)
	if len(e.Themes()) < 2 {
		t.Fatalf("need two themes to project, have %d", len(e.Themes()))
	}
	var sb strings.Builder
	record := func(step string, m *Map, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		mapDigest(&sb, step, m)
		assertAscending(t, step+" state", e.State().Rows.AppendTo(nil))
		var walk func(r *Region)
		walk = func(r *Region) {
			assertAscending(t, fmt.Sprintf("%s region %v", step, r.Path), r.RowIDs().AppendTo(nil))
			if r.RowIDs().Len() != r.Count() {
				t.Fatalf("%s region %v: %d rows, count %d", step, r.Path, r.RowIDs().Len(), r.Count())
			}
			for _, c := range r.Children {
				walk(c)
			}
		}
		walk(m.Root)
	}
	m, err := e.SelectTheme(0)
	record("select", m, err)

	b, err := e.Prepare(Action{Kind: ActionZoom, Path: largestLeaf(m)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != ReuseCold {
		t.Fatalf("first zoom resolved as %q, want %q", b.Reuse(), ReuseCold)
	}
	m, err = e.runAndApply(b, nil)
	record("zoom", m, err)

	m, err = e.Project(1)
	record("project", m, err)
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	m, err = e.Zoom(largestLeaf(e.CurrentMap())...)
	record("rezoom", m, err)
	// A filter is the third producer of selections (store.ScanRows);
	// the root split always keeps some rows and drops some.
	if split := m.Root.Split; split != nil {
		m, err = e.Filter(split)
		record("filter", m, err)
	}
	return sb.String()
}

// TestPinnedNavigationDigests pins navigation results across commits.
// Every other differential in the tree compares two runs of the same
// code (lazy vs matrix, parallel vs sequential, segment vs memory), so a
// refactor that shifts both sides passes them all. The constants below
// were recorded at the commit before the cluster layer's one-contract
// refactor and must not change with it; a deliberate change to the
// clustering (a new seeding default, a re-pinned golden) re-records
// them in the same PR and says so. The four CLARA-path cases (clara,
// lazy, derived-lazy, derived-clara) were last re-recorded when a sweep
// began drawing CLARA's samples and the Monte-Carlo rounds once for
// every k; the exact-PAM cases have not moved.
//
// Each case runs twice, once per way of opening, against the same
// constant: a session on a shared Dataset draws the seeds a session that
// detected themes itself draws. With Dataset.Open skipping no draws of
// the seed's stream, the four cases whose maps depend on the stream
// (clara, lazy, derived-lazy, derived-clara) fail on both ways; exact
// PAM over the whole table maps alike under any stream.
//
// Every case runs with the map cache on, so the re-zoom after the
// rollback is a hit and every other build is cold.
func TestPinnedNavigationDigests(t *testing.T) {
	cases := []struct {
		name string
		n    int
		seed int64
		opts Options
		want string
	}{
		// Exact PAM over a materialized matrix.
		{"pam", 900, 11, Options{Seed: 3}, "0d4ac904dfc2f18b"},
		// Sample above PAMThreshold: CLARA + Monte-Carlo silhouettes over
		// a lazy oracle.
		{"clara", 3000, 12, Options{Seed: 4, SampleSize: 1500, PAMThreshold: 400}, "54102b8ff9532d5c"},
		{"pam-seed5", 900, 13, Options{Seed: 5}, "2b6fa3f402622eb1"},
		// A 2500-object sample: the engine clusters it over a lazy oracle,
		// and CLARA's samples subset it.
		{"lazy", 3000, 19, Options{Seed: 11, SampleSize: 2500}, "4ba2b8b09a9b2ebc"},
		{"derived-matrix", 900, 15, Options{Seed: 7}, "074c7a9cdf426897"},
		{"derived-matrix-seed8", 900, 16, Options{Seed: 8}, "fcd0058c793c9816"},
		{"derived-lazy", 3000, 20, Options{Seed: 12, SampleSize: 2500}, "3d572837fc197dc5"},
		{"derived-clara", 3000, 18, Options{Seed: 10, SampleSize: 1500, PAMThreshold: 400}, "0b02199ac29a8127"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, open := range []string{openOwn, openShared} {
				text := pinnedNavigation(t, tc.n, tc.seed, tc.opts, open)
				h := fnv.New64a()
				h.Write([]byte(text))
				if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
					t.Errorf("%s: digest %s, want %s; navigation was:\n%s", open, got, tc.want, text)
				}
			}
		})
	}
}
