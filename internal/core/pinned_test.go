package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
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
// Region.RowIDs that findDerivable's merge relies on.
func assertAscending(t *testing.T, what string, rows []int) {
	t.Helper()
	if !sort.IntsAreSorted(rows) {
		t.Fatalf("%s: rows are not ascending", what)
	}
}

// pinnedNavigation drives select → zoom → project → rollback → zoom →
// filter and returns the textual digest of every map on the way, asserting on the
// way that every state's and region's rows are ascending (a region's
// read through RowIDs, as many as it counts). wantZoom is
// the reuse level the first zoom must resolve to.
func pinnedNavigation(t *testing.T, n int, seed int64, opts Options, wantZoom ReuseLevel) string {
	t.Helper()
	e, err := NewExplorer(pinnedTable(n, seed).Table, opts)
	if err != nil {
		t.Fatal(err)
	}
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

	b, err := e.PrepareZoom(largestLeaf(m)...)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reuse() != wantZoom {
		t.Fatalf("first zoom resolved as %q, want %q", b.Reuse(), wantZoom)
	}
	m, err = e.runAndApply(b)
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
// them in the same PR and says so.
func TestPinnedNavigationDigests(t *testing.T) {
	cold := func(o Options) Options { o.DerivedSampleMin = -1; return o }
	cases := []struct {
		name string
		n    int
		seed int64
		opts Options
		zoom ReuseLevel
		want string
	}{
		// Exact PAM over a materialized matrix, every build cold.
		{"pam", 900, 11, cold(Options{Seed: 3}), ReuseCold, "0d4ac904dfc2f18b"},
		// Sample above PAMThreshold: CLARA + Monte-Carlo silhouettes.
		{"clara", 3000, 12, cold(Options{Seed: 4, SampleSize: 1500, PAMThreshold: 400}), ReuseCold, "838acf4c66ecba67"},
		{"pam-seed5", 900, 13, cold(Options{Seed: 5}), ReuseCold, "2b6fa3f402622eb1"},
		// A 2500-object sample: the engine clusters it over a lazy oracle,
		// and CLARA's samples subset it.
		{"lazy", 3000, 19, cold(Options{Seed: 11, SampleSize: 2500}), ReuseCold, "a8350c62cc2b31c9"},
		// Zooms derived from the select's artifact, one per storage;
		// derived-clara subsets a derived view again (CLARA's samples).
		{"derived-matrix", 900, 15, Options{Seed: 7}, ReuseOracleDerived, "34c9d163be80c8c3"},
		{"derived-matrix-seed8", 900, 16, Options{Seed: 8}, ReuseOracleDerived, "4482722ac80a598d"},
		{"derived-lazy", 3000, 20, Options{Seed: 12, SampleSize: 2500}, ReuseOracleDerived, "14e7b45a6a04961e"},
		{"derived-clara", 3000, 18, Options{Seed: 10, SampleSize: 1500, PAMThreshold: 400}, ReuseOracleDerived, "6faddfa95f8ef9cf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := pinnedNavigation(t, tc.n, tc.seed, tc.opts, tc.zoom)
			h := fnv.New64a()
			h.Write([]byte(text))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("digest %s, want %s; navigation was:\n%s", got, tc.want, text)
			}
		})
	}
}
