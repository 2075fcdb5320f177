package core

import (
	"context"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/cores"
	"repro/internal/datagen"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/store"
)

// coldDataset detects the themes of a pinned table under options with
// the cache off, so that every build of a session opened on it is cold
// and computes its own matrix.
func coldDataset(t *testing.T, n int, opts Options) *Dataset {
	t.Helper()
	opts.MapCacheSize = -1
	d, err := NewDataset(pinnedTable(n, 21).Table, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coldExplorer opens an explorer on a cold dataset of its own.
func coldExplorer(t *testing.T, n int, opts Options) *Explorer {
	t.Helper()
	return coldDataset(t, n, opts).Open()
}

// TestColdBuildReusesScratchMatrix: a session's second cold build at the
// same sample size computes its matrix on the first build's storage, so
// it allocates less than half of one matrix all told.
func TestColdBuildReusesScratchMatrix(t *testing.T) {
	const n = 1500
	e := coldExplorer(t, n, Options{Seed: 1})
	first, err := e.SelectTheme(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.SampleSize != n || len(e.data.spent) != 1 {
		t.Fatalf("first build clustered %d objects and left %d spent matrices", first.SampleSize, len(e.data.spent))
	}
	got := allocated(func() {
		if _, err := e.SelectTheme(0); err != nil {
			t.Fatal(err)
		}
	})
	if matrix := uint64(n*(n-1)/2) * 8; got >= matrix/2 {
		t.Errorf("second cold build allocated %d bytes, one matrix is %d", got, matrix)
	}
}

// scratchSlack is what a build may allocate beyond its steady state
// when a GC empties the store's run-scratch pool mid-test: a route's
// and a run read's buffers at these sizes, with room to spare.
const scratchSlack = 64 << 10

// TestColdBuildReusesSampleSlab: a session's second cold build of a
// theme at the sample size of its first, on the same seed, gathers its
// sample into the slab the first left, transforms its vectors into the
// vector slab and headers the first left, and computes its matrix on the
// first's storage: it allocates at least a matrix and a sample gather
// (n·|theme|·8 bytes) less than the first build did, and less than its
// n×Dim vectors with their headers all told. Every column of the wide
// theme is a float feature, so Dim is |theme|. The sample is within
// PAMThreshold, so the build runs exact PAM over a matrix.
func TestColdBuildReusesSampleSlab(t *testing.T) {
	const n = 1000
	tab := datagen.PlantedThemes(n, []datagen.ThemeSpec{
		{Name: "wide", Cols: 24, K: 3},
		{Name: "narrow", Cols: 3, K: 2, Sep: 5},
	}, rand.New(rand.NewSource(5))).Table
	d, err := NewDataset(tab, Options{Seed: 1, MapCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := d.Open()
	wide := 0
	for i, th := range e.Themes() {
		if len(th.Columns) > len(e.Themes()[wide].Columns) {
			wide = i
		}
	}
	prepare := func() *MapBuild {
		b, err := e.Prepare(Action{Kind: ActionSelect, Theme: wide})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run := func(b *MapBuild) uint64 {
		var m *Map
		var err error
		got := allocated(func() {
			if m, err = b.Run(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		})
		if m.SampleSize != n {
			t.Fatalf("the build clustered %d objects, want %d", m.SampleSize, n)
		}
		return got
	}
	b1, b2 := prepare(), prepare()
	b2.seed = b1.seed // the same draws: the same clustering and tree
	first, second := run(b1), run(b2)
	matrix := uint64(n*(n-1)/2) * 8
	gather := uint64(n*len(e.Themes()[wide].Columns)) * 8
	if second+matrix+gather > first+scratchSlack {
		t.Errorf("second cold build allocated %d bytes, first %d: want at most first − matrix (%d) − gather (%d) + %d",
			second, first, matrix, gather, scratchSlack)
	}
	if vectors := gather + uint64(n)*uint64(unsafe.Sizeof([]float64(nil))); second >= vectors {
		t.Errorf("second cold build allocated %d bytes, its n×Dim vectors and their headers are %d", second, vectors)
	}
}

// warmBuildSlack is what a warm cold build may allocate beyond its
// routing's planes: the rest of what its map keeps — the regions, their
// conditions and labels, the tree's nodes and features, the routing's
// node table — and the little its stages still allocate per build: the
// clusterings' headers and medoids, the router, the lazy oracle. Both
// paths below read about 5.5 KB over their planes.
const warmBuildSlack = 8 << 10

// TestWarmColdBuildAllocatesWhatItsMapKeeps: with the cache off and the
// dataset's build scratch warmed by a first build, a cold build draws
// its sample, gathers it, prepares, clusters and fits in that scratch,
// so it allocates its routing's planes — ⌈log₂ L⌉ bit-planes of
// ⌈N/64⌉ words for L leaves over N selected rows — and at most
// warmBuildSlack besides: on the CLARA path (a 1 100-row sample over a
// lazy oracle) and on the exact one (300 rows, PAM over the scratch's
// matrix), over the table in memory and over a segment of it, whose
// gathers read pages through the store's pooled run scratch. That
// scratch is not the build's: the builds run on one P, since sync.Pool
// keeps it per P and a build that resumes on another after a fan-out
// would miss it, and the least of up to twenty builds is read, since a
// GC between them empties the pool and the race detector's pool drops
// a quarter of what it is given.
func TestWarmColdBuildAllocatesWhatItsMapKeeps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tab := datagen.LOFAR(datagen.LOFAROptions{N: 20_000}, rand.New(rand.NewSource(1))).Table
	for _, rel := range []store.Relation{tab, lawSegment(t, tab)} {
		for _, n := range []int{1100, 300} {
			d, err := NewDataset(rel, Options{Seed: 1, SampleSize: n, MapCacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			e := d.Open()
			wide := 0
			for i, th := range e.Themes() {
				if len(th.Columns) > len(e.Themes()[wide].Columns) {
					wide = i
				}
			}
			var m *Map
			build := func() {
				if m, err = e.SelectTheme(wide); err != nil {
					t.Fatal(err)
				}
				if err := e.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
			build()
			leaves := 0
			for _, r := range regionsOf(m) {
				if len(r.Children) == 0 {
					leaves++
				}
			}
			if m.SampleSize != n || leaves < 2 {
				t.Fatalf("%T, n=%d: the build clustered %d objects into %d leaves", rel, n, m.SampleSize, leaves)
			}
			planes := uint64(bits.Len(uint(leaves-1))) * uint64((tab.NumRows()+63)/64) * 8
			got := allocated(build)
			for i := 1; i < 20 && got > planes+warmBuildSlack; i++ {
				got = min(got, allocated(build))
			}
			if got > planes+warmBuildSlack {
				t.Errorf("%T, n=%d: a warm cold build allocated %d bytes, its %d leaves' planes are %d, slack %d",
					rel, n, got, leaves, planes, warmBuildSlack)
			}
		}
	}
}

// TestPrepFitBytesFlatInRows: prep.Fit reads its numeric columns in
// place, so what it allocates does not grow with the sample.
func TestPrepFitBytesFlatInRows(t *testing.T) {
	fitBytes := func(n int) uint64 {
		tab := pinnedTable(n, 21).Table
		prep.Fit(tab, nil) // warm the runtime's size classes
		return allocated(func() {
			if _, err := prep.Fit(tab, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := fitBytes(1000), fitBytes(10000)
	if large > small+1<<10 {
		t.Errorf("prep.Fit allocated %d bytes over 1 000 rows and %d over 10 000", small, large)
	}
}

// TestReleaseEmptiesScratch: Release drops every scratch on the
// dataset's free list, and a build after it starts one afresh.
func TestReleaseEmptiesScratch(t *testing.T) {
	d := coldDataset(t, 300, Options{Seed: 3})
	e := d.Open()
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	if len(d.spent) != 1 {
		t.Fatalf("a finished build left %d scratches, want 1", len(d.spent))
	}
	d.Release()
	if n := len(d.spent); n != 0 {
		t.Fatalf("Release left %d scratches", n)
	}
	if _, err := e.SelectTheme(1); err != nil {
		t.Fatal(err)
	}
	if len(d.spent) != 1 {
		t.Fatalf("a build after Release left %d scratches, want 1", len(d.spent))
	}
}

// TestSessionFirstBuildReusesScratchMatrix: the spent matrices belong to
// the dataset, so a session's first cold build computes its matrix on
// the storage an earlier session's build left, and allocates less than
// half of one matrix all told.
func TestSessionFirstBuildReusesScratchMatrix(t *testing.T) {
	const n = 1500
	d := coldDataset(t, n, Options{Seed: 1})
	if _, err := d.Open().SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	second := d.Open()
	var m *Map
	var err error
	got := allocated(func() {
		if m, err = second.SelectTheme(0); err != nil {
			t.Fatal(err)
		}
	})
	if matrix := uint64(n*(n-1)/2) * 8; m.SampleSize != n || got >= matrix/2 {
		t.Errorf("a new session's first cold build over %d objects allocated %d bytes, one matrix is %d", m.SampleSize, got, matrix)
	}
}

// panicMetric is Euclidean until armed; armed, it panics, as a metric
// meeting a vector it cannot handle would.
type panicMetric struct {
	stats.Euclidean
	armed atomic.Bool
}

func (m *panicMetric) DistRow(a []float64, bs [][]float64, dst []float64) {
	if m.armed.Load() {
		panic("distance row panicked")
	}
	m.Euclidean.DistRow(a, bs, dst)
}

// TestPanickingBuildLeavesScratchEmpty: a build whose metric panics
// inside the matrix fill's fan-out panics on the build's own goroutine,
// where a recover can catch it, and drops its matrix instead of
// returning it to the dataset's free list.
func TestPanickingBuildLeavesScratchEmpty(t *testing.T) {
	metric := &panicMetric{}
	e := coldExplorer(t, 600, Options{Seed: 2})
	e.metric = metric
	if _, err := e.SelectTheme(0); err != nil {
		t.Fatal(err)
	}
	if len(e.data.spent) != 1 {
		t.Fatalf("a finished build left %d spent matrices, want 1", len(e.data.spent))
	}
	metric.armed.Store(true)
	b, err := e.Prepare(Action{Kind: ActionSelect, Theme: 0})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build did not panic")
			}
		}()
		_, _ = b.Run(context.Background(), nil)
	}()
	if n := len(e.data.spent); n != 0 {
		t.Fatalf("a panicked build returned its matrix to the free list: %d spent", n)
	}
}

// TestConcurrentColdBuildsScratch: two cold builds prepared on one
// explorer and run at once contend for the dataset's one spent matrix —
// one takes it, the other allocates — and both give the maps serial
// runs give (run under -race in CI).
func TestConcurrentColdBuildsScratch(t *testing.T) {
	digests := func(concurrent bool) string {
		e := coldExplorer(t, 300, Options{Seed: 4})
		if _, err := e.SelectTheme(0); err != nil { // leaves one spent matrix
			t.Fatal(err)
		}
		builds := make([]*MapBuild, 2)
		for i := range builds {
			b, err := e.Prepare(Action{Kind: ActionSelect, Theme: i})
			if err != nil {
				t.Fatal(err)
			}
			builds[i] = b
		}
		maps := make([]*Map, len(builds))
		errs := make([]error, len(builds))
		var wg sync.WaitGroup
		for i, b := range builds {
			run := func() { maps[i], errs[i] = b.Run(context.Background(), nil) }
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		var sb strings.Builder
		for i, m := range maps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			mapDigest(&sb, builds[i].next.Detail, m)
		}
		if n := len(e.data.spent); n == 0 || n > min(2, cores.Width()) {
			t.Fatalf("the builds left %d spent matrices, want 1 to %d", n, min(2, cores.Width()))
		}
		return sb.String()
	}
	want := digests(false)
	for round := 0; round < 3; round++ {
		if got := digests(true); got != want {
			t.Fatalf("round %d: concurrent builds gave\n%s\nserial runs\n%s", round, got, want)
		}
	}
}

// TestConcurrentColdBuildsAcrossSessions: cores.Width()+1 sessions on
// one dataset, each building a cold map at once, contend for the
// dataset's free list of spent scratch. Their maps are the ones serial
// runs give and the ones each session's build gives on a fresh dataset
// of its own, and afterwards the dataset holds at most cores.Width()
// scratches, not one per session (run under -race in CI). It runs on
// exact PAM (300 objects) and on CLARA (a 1 100-row sample of 3 000
// rows, above PAMThreshold), where the kept generator and draw buffers
// feed CLARA's samples and Monte-Carlo rounds.
func TestConcurrentColdBuildsAcrossSessions(t *testing.T) {
	sessions := cores.Width() + 1
	for _, tc := range []struct{ rows, sample int }{{300, 0}, {3000, 1100}} {
		opts := Options{Seed: 4, SampleSize: tc.sample}
		// digests runs the sessions' builds at once or one after another
		// on one dataset, or each on a fresh dataset of its own.
		digests := func(concurrent, fresh bool) string {
			d := coldDataset(t, tc.rows, opts)
			explorers := make([]*Explorer, sessions)
			for i := range explorers {
				if fresh {
					explorers[i] = coldDataset(t, tc.rows, opts).Open()
				} else {
					explorers[i] = d.Open()
				}
			}
			maps := make([]*Map, sessions)
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i, e := range explorers {
				run := func() { maps[i], errs[i] = e.SelectTheme(i % len(d.themes)) }
				if !concurrent {
					run()
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					run()
				}()
			}
			wg.Wait()
			var sb strings.Builder
			for i, m := range maps {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if tc.sample > 0 && m.SampleSize != tc.sample {
					t.Fatalf("session %d clustered %d objects, want %d", i, m.SampleSize, tc.sample)
				}
				mapDigest(&sb, explorers[i].State().Detail, m)
			}
			if n := len(d.spent); !fresh && (n == 0 || n > cores.Width()) {
				t.Fatalf("%d sessions' builds left %d spent scratches, want 1 to %d", sessions, n, cores.Width())
			}
			return sb.String()
		}
		want := digests(false, false)
		if got := digests(false, true); got != want {
			t.Fatalf("%d rows: builds on fresh datasets gave\n%s\nserial runs on one\n%s", tc.rows, got, want)
		}
		for round := 0; round < 3; round++ {
			if got := digests(true, false); got != want {
				t.Fatalf("%d rows, round %d: concurrent sessions gave\n%s\nserial runs\n%s", tc.rows, round, got, want)
			}
		}
	}
}

// TestConcurrentBuildsShareSlabs: sessions on one dataset select a
// theme and zoom into its largest region at once, so builds of different
// sample sizes and theme widths draw their samples, gather them, fit
// their pipelines and transform their vectors into the storage of the
// dataset's free list as other builds hand it back. Their maps are the
// ones serial runs give, and the ones each session gives on a fresh
// dataset of its own (run under -race in CI). It runs at a 300-row
// sample of 700 rows and at a 1 100-row sample of 3 000, whose selects
// cluster by CLARA on the kept generator's draws.
func TestConcurrentBuildsShareSlabs(t *testing.T) {
	sessions := cores.Width() + 2
	for _, tc := range []struct{ rows, sample int }{{700, 300}, {3000, 1100}} {
		opts := Options{Seed: 6, SampleSize: tc.sample}
		dataset := func() *Dataset {
			d, err := NewDataset(pinnedTable(tc.rows, 21).Table, opts)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		digests := func(concurrent, fresh bool) string {
			d := dataset()
			explorers := make([]*Explorer, sessions)
			for i := range explorers {
				if fresh {
					explorers[i] = dataset().Open()
				} else {
					explorers[i] = d.Open()
				}
			}
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i, e := range explorers {
				run := func() {
					m, err := e.SelectTheme(i % len(d.themes))
					if err == nil {
						_, err = e.Zoom(largestLeaf(m)...)
					}
					errs[i] = err
				}
				if !concurrent {
					run()
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					run()
				}()
			}
			wg.Wait()
			var sb strings.Builder
			for i, e := range explorers {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				for _, st := range e.History()[1:] {
					mapDigest(&sb, st.Detail, st.Map)
				}
			}
			return sb.String()
		}
		want := digests(false, false)
		if got := digests(false, true); got != want {
			t.Fatalf("%d rows: sessions on fresh datasets gave\n%s\nserial runs on one\n%s", tc.rows, got, want)
		}
		for round := 0; round < 3; round++ {
			if got := digests(true, false); got != want {
				t.Fatalf("%d rows, round %d: concurrent sessions gave\n%s\nserial runs\n%s", tc.rows, round, got, want)
			}
		}
	}
}

// TestConcurrentFitsShareTreeScratch: sessions on one dataset map themes
// of different widths at once, each session walking the themes from its
// own start, so a build fits its description tree in presorted lists a
// build over another width sized, and regrows them while another build
// holds the dataset's other scratch. Their maps are the ones serial runs
// give (run under -race in CI).
func TestConcurrentFitsShareTreeScratch(t *testing.T) {
	ds := datagen.PlantedThemes(600, []datagen.ThemeSpec{
		{Name: "narrow", Cols: 2, K: 3},
		{Name: "wide", Cols: 7, K: 3, Sep: 5},
		{Name: "mid", Cols: 4, K: 2},
	}, rand.New(rand.NewSource(3)))
	opts := Options{Seed: 4, SampleSize: 250}
	sessions := 2*cores.Width() + 1
	digests := func(concurrent bool) string {
		d, err := NewDataset(ds.Table, opts)
		if err != nil {
			t.Fatal(err)
		}
		widths := map[int]bool{}
		for _, th := range d.themes {
			widths[len(th.Columns)] = true
		}
		if len(widths) < 2 {
			t.Fatalf("themes %v: want at least two widths", d.themes)
		}
		explorers := make([]*Explorer, sessions)
		for i := range explorers {
			explorers[i] = d.Open()
		}
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i, e := range explorers {
			run := func() {
				_, err := e.SelectTheme(i % len(d.themes))
				for j := 1; j < len(d.themes) && err == nil; j++ {
					_, err = e.Project((i + j) % len(d.themes))
				}
				errs[i] = err
			}
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		var sb strings.Builder
		for i, e := range explorers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			for _, st := range e.History()[1:] {
				mapDigest(&sb, st.Detail, st.Map)
			}
		}
		return sb.String()
	}
	want := digests(false)
	for round := 0; round < 3; round++ {
		if got := digests(true); got != want {
			t.Fatalf("round %d: concurrent sessions gave\n%s\nserial runs\n%s", round, got, want)
		}
	}
}

// TestConcurrentClusterScratch: two sessions on one cache-off dataset
// run cold selects, clustered through CLARA over a lazy oracle on a
// 300-row sample (above the dataset's PAMThreshold of 200), each sweep
// drawing its CLARA samples and Monte-Carlo rounds once and building
// their matrices in its own scratch, and cold zooms into their largest
// region, clustered by exact PAM over a matrix of its 155 or 210 rows,
// at once, so a build sweeps in cluster buffers a build of another size
// left, and regrows them while the other build holds the dataset's
// second scratch. Their maps are the ones serial runs give (run under
// -race in CI).
func TestConcurrentClusterScratch(t *testing.T) {
	opts := Options{Seed: 8, SampleSize: 300, PAMThreshold: 200, MapCacheSize: -1}
	digests := func(concurrent bool) string {
		d, err := NewDataset(pinnedTable(400, 23).Table, opts)
		if err != nil {
			t.Fatal(err)
		}
		const sessions = 2
		out := make([]strings.Builder, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := range sessions {
			e := d.Open()
			run := func() {
				for round := range 3 {
					m, err := e.SelectTheme((i + round) % len(d.themes))
					if err == nil {
						mapDigest(&out[i], "select", m)
						m, err = e.Zoom(largestLeaf(m)...)
					}
					if err == nil {
						mapDigest(&out[i], "zoom", m)
						err = e.Rollback()
					}
					if err != nil {
						errs[i] = err
						return
					}
				}
			}
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		var sb strings.Builder
		for i := range out {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sb.WriteString(out[i].String())
		}
		return sb.String()
	}
	want := digests(false)
	if !strings.Contains(want, "select k=3 sample=300") || !strings.Contains(want, "zoom k=3 sample=155") {
		t.Fatalf("want a select through CLARA over 300 rows and a zoom through exact PAM over 155:\n%s", want)
	}
	for round := 0; round < 3; round++ {
		if got := digests(true); got != want {
			t.Fatalf("round %d: concurrent sessions gave\n%s\nserial runs\n%s", round, got, want)
		}
	}
}
