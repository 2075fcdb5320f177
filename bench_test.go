package blaeu

// Kernel benchmarks: the algorithms under the maps, timed at fixed sizes.
// Run with: go test -bench=. -benchmem (`make bench`); CI runs every
// benchmark once (`make bench-smoke`).
//
// This file and internal/store's benchmarks answer questions about a
// kernel; questions about a click are the ledger's (bench/load,
// `make bench-click`), and the paper's figures and claims are the
// experiments' (internal/experiments, each held by a claim test).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tree"
)

func benchVectors(n, dims, k int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: k, Dims: dims, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
	if err != nil {
		panic(err)
	}
	return vecs, ds.Truth["rows"]
}

func BenchmarkCLARA(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		vecs, _ := benchVectors(n, 6, 4)
		o := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, err := cluster.CLARA(o, 4, cluster.CLARAOptions{Rand: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSQLExecute(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 50000}, rng)
	cat := store.MapCatalog{"lofar": ds.Table}
	query := "SELECT SourceID, TotalFlux FROM lofar WHERE SNR >= 20 AND AxisRatio < 2 ORDER BY TotalFlux DESC LIMIT 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.RunSQL(query, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouetteExact(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		vecs, labels := benchVectors(n, 6, 3)
		o := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cluster.Silhouette(o, labels, 3)
			}
		})
	}
}

// The benchmarks below are the cluster stage's distance kernels at the
// sizes of an explore_mem click (bench/load): a 1100-tuple sample in 40
// prepared dimensions.

func BenchmarkDistMatrixBuild(b *testing.B) {
	vecs, _ := benchVectors(1100, 40, 4)
	// The same vectors with one value in eight missing, as a -Inf cell
	// becomes once z-scored: the fill's fallback to one Dist per cell.
	rng := rand.New(rand.NewSource(10))
	holed := make([][]float64, len(vecs))
	for i, v := range vecs {
		holed[i] = append([]float64(nil), v...)
		for d := range v {
			if rng.Intn(8) == 0 {
				holed[i][d] = math.NaN()
			}
		}
	}
	for _, tc := range []struct {
		name string
		vecs [][]float64
	}{{"NaN-free", vecs}, {"with-NaNs", holed}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cluster.ComputeDistMatrix(tc.vecs, stats.Euclidean{})
			}
		})
	}
}

// BenchmarkAutoK is the cluster stage's model selection at explore_mem's
// shape (a select's 1 100-row sample of a 33-column theme, core's
// thresholds, so CLARA with Monte-Carlo silhouettes) over the oracle the
// engine picks there, a lazy one. fresh sweeps in a new cluster.Scratch,
// the way cluster.AutoK does; reuse sweeps in one Scratch carried across
// iterations, the way a build on a dataset's scratch does, and allocates
// only what the clustering keeps — watch its B/op.
func BenchmarkAutoK(b *testing.B) {
	vecs, _ := benchVectors(1100, 33, 4)
	d := core.DefaultOptions()
	o := new(cluster.Scratch).Oracle(vecs, stats.Euclidean{}, d.PAMThreshold)
	rng := rand.New(rand.NewSource(1))
	run := func(b *testing.B, sc *cluster.Scratch) {
		if _, err := sc.AutoK(o, cluster.AutoKOptions{KMin: d.MapKMin, KMax: d.MapKMax,
			LargeThreshold: d.PAMThreshold, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, new(cluster.Scratch))
		}
	})
	b.Run("reuse", func(b *testing.B) {
		sc := new(cluster.Scratch)
		run(b, sc) // the scratch a dataset's earlier build left
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, sc)
		}
	})
}

// BenchmarkHighlightStats is the store call behind a highlight click on
// a region of 30 000 tuples of an all-distinct float column.
func BenchmarkHighlightStats(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	vals := make([]float64, 30000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	col := store.NewFloatColumnFrom("x", vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.ComputeStats(col)
	}
}

// BenchmarkHighlightRevisit is a repeat highlight click: the same column
// of the same region of 100 000 tuples, on the cached map a map-cache hit
// serves. The statistics were computed by the first highlight, so B/op
// is what a revisit's inspection costs beside them.
func BenchmarkHighlightRevisit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 100000, K: 4, Dims: 8, Sep: 6}, rng)
	e, err := core.NewExplorer(ds.Table, core.Options{Seed: 1, SampleSize: 2000, DependencySampleRows: 500})
	if err != nil {
		b.Fatal(err)
	}
	id, err := e.AddTheme(ds.Table.ColumnNames())
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		b.Fatal(err)
	}
	col, path := ds.Table.ColumnNames()[0], m.Root.Leaves()[0].Path
	if _, err := e.Highlight(col, path...); err != nil {
		b.Fatal(err)
	}
	if _, err := e.SelectTheme(id); err != nil || e.ReuseStats().Map.Hits == 0 {
		b.Fatalf("reselecting the theme was not a map-cache hit (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Highlight(col, path...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouetteMC(b *testing.B) {
	for _, n := range []int{1000, 4000, 20000} {
		vecs, labels := benchVectors(n, 6, 3)
		o := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				cluster.MCSilhouette(o, labels, 3, rng)
			}
		})
	}
}

func BenchmarkMutualInformation(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 10000
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(10)
		y[i] = (x[i] + rng.Intn(3)) % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.NormalizedMI(x, y)
	}
}

func BenchmarkDependencyGraph(b *testing.B) {
	for _, cols := range []int{20, 50} {
		rng := rand.New(rand.NewSource(9))
		specs := make([]datagen.ThemeSpec, 4)
		for i := range specs {
			specs[i] = datagen.ThemeSpec{Name: fmt.Sprintf("t%d", i), Cols: cols / 4, K: 2}
		}
		ds := datagen.PlantedThemes(2000, specs, rng)
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.BuildDependencyGraph(ds.Table, nil, graph.DependencyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCARTFit grows a depth-3 description tree on planted blobs:
// n=1000 and n=5000 over 6 columns, and explore_mem over 33 (the shape
// of that workload's select: a 1 100-row sample of its widest theme).
// Each fits in a
// fresh tree.Scratch, the way tree.Fit does; reuse fits in one Scratch
// carried across iterations, the way a build on a dataset's scratch
// does, and allocates only the tree's nodes.
func BenchmarkCARTFit(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, dims int
	}{{"n=1000", 1000, 6}, {"n=5000", 5000, 6}, {"explore_mem", 1100, 33}} {
		rng := rand.New(rand.NewSource(9))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: c.n, K: 4, Dims: c.dims, Sep: 6}, rng)
		features, labels := ds.Table.ColumnNames(), ds.Truth["rows"]
		fit := func(b *testing.B, reused *tree.Scratch) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := reused
				if sc == nil {
					sc = new(tree.Scratch)
				}
				if _, err := sc.Fit(ds.Table, features, labels, 4, tree.Options{MaxDepth: 3, MinLeaf: 8}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(c.name, func(b *testing.B) { fit(b, nil) })
		b.Run(c.name+"/reuse", func(b *testing.B) { fit(b, new(tree.Scratch)) })
	}
}

func BenchmarkPreprocess(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.Hollywood(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prep.FitTransform(ds.Table, nil, prep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen is the engine's half of opening a session on the
// explore_mem workload's table (bench/load: LOFAR, 100 000 rows, sample
// 1100, seed 1). cold opens the way a session on a table of its own
// does, detecting the themes (core.NewExplorer); shared opens on a
// Dataset whose themes are already detected, the way a server's every
// open after a dataset's first does.
func BenchmarkOpen(b *testing.B) {
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 100_000}, rand.New(rand.NewSource(1)))
	opts := core.Options{Seed: 1, SampleSize: 1100}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewExplorer(ds.Table, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	d, err := core.NewDataset(ds.Table, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Open()
		}
	})
}

// BenchmarkSessionFirstBuild is a new session's first map on the
// explore_mem workload's table (bench/load: LOFAR, 100 000 rows, sample
// 1100, seed 1): open on a shared Dataset, select the first theme. Each
// session's cache starts empty, so every build is cold. An earlier
// session's build has left its distance matrix to the dataset, so the
// one a build computes (4.84 MB at n=1100) is no part of B/op.
func BenchmarkSessionFirstBuild(b *testing.B) {
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 100_000}, rand.New(rand.NewSource(1)))
	opts := core.Options{Seed: 1, SampleSize: 1100}
	d, err := core.NewDataset(ds.Table, opts)
	if err != nil {
		b.Fatal(err)
	}
	first := func() {
		if _, err := d.Open().SelectTheme(0); err != nil {
			b.Fatal(err)
		}
	}
	first()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first()
	}
}

// BenchmarkColdSelectDefault is a cold map at the engine's default
// sample: LOFAR, 100 000 rows, SampleSize 5 000 (DefaultOptions'), the
// map cache off, one select of the widest theme in a new session. The
// build is CLARA with Monte-Carlo silhouettes over a lazy oracle, at a
// sample no ledger workload reaches; this is the baseline a change to
// that path is read against.
func BenchmarkColdSelectDefault(b *testing.B) {
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 100_000}, rand.New(rand.NewSource(1)))
	d, err := core.NewDataset(ds.Table, core.Options{Seed: 1, SampleSize: core.DefaultOptions().SampleSize,
		DependencySampleRows: 1100, MapCacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	wide := 0
	themes := d.Open().Themes()
	for i, th := range themes {
		if len(th.Columns) > len(themes[wide].Columns) {
			wide = i
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Open().SelectTheme(wide); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdBuildWarm is a cold select on a dataset whose build
// scratch an earlier build has warmed: the explore_mem workload's table
// (bench/load: LOFAR, 100 000 rows, seed 1) with the map cache off, its
// widest theme selected and rolled back. n=1100 is explore_mem's
// sample, clustered by CLARA over a lazy oracle; n=300 runs exact PAM
// over the scratch's matrix. A warm build allocates what its map keeps,
// the routing and the regions, and little else: watch B/op.
func BenchmarkColdBuildWarm(b *testing.B) {
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 100_000}, rand.New(rand.NewSource(1)))
	for _, n := range []int{1100, 300} {
		d, err := core.NewDataset(ds.Table, core.Options{Seed: 1, SampleSize: n, MapCacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		e := d.Open()
		wide := 0
		for i, th := range e.Themes() {
			if len(th.Columns) > len(e.Themes()[wide].Columns) {
				wide = i
			}
		}
		build := func() {
			if _, err := e.SelectTheme(wide); err != nil {
				b.Fatal(err)
			}
			if err := e.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		build()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}

// BenchmarkFilterStrEq is a string equality on the explore_mem
// workload's table (bench/load: LOFAR, 100 000 rows, sample 1100, seed
// 1) over SourceID, whose 100 000 values are all distinct, against its
// last dictionary entry: the slowest lookup a compile's dictionary scan
// makes. click is a session's filter click and its rollback, on a map
// the session's cache holds after the first run, so each run pays the
// parse, the compile and the scan, not a build; sql-limit is a LIMIT
// query over a value no row holds, which routes every row range of the
// limit's pushdown.
func BenchmarkFilterStrEq(b *testing.B) {
	ds := datagen.LOFAR(datagen.LOFAROptions{N: 100_000}, rand.New(rand.NewSource(1)))
	b.Run("click", func(b *testing.B) {
		e, err := core.NewExplorer(ds.Table, core.Options{Seed: 1, SampleSize: 1100})
		if err != nil {
			b.Fatal(err)
		}
		click := func() {
			if _, err := e.FilterExpr("SourceID <> 'LOFAR-0099999'"); err != nil {
				b.Fatal(err)
			}
			if err := e.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		click()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			click()
		}
	})
	b.Run("sql-limit", func(b *testing.B) {
		cat := store.MapCatalog{"lofar": ds.Table}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := store.RunSQL("SELECT SourceID FROM lofar WHERE SourceID = 'LOFAR-9999999' LIMIT 10", cat)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() != 0 {
				b.Fatalf("%d rows hold an absent value", res.NumRows())
			}
		}
	})
}

// BenchmarkMapBuild times one full mapping-pipeline pass (the latency of
// a theme selection or zoom) over the oracle the engine chooses, with the
// sampling budget raised to the full input so the oracle's size is what
// the benchmark measures: a matrix at n=2000, lazy above. At n=20000 the
// run also asserts the peak allocation stays far below the n(n-1)/2
// condensed matrix (1.6 GB) the lazy oracle exists to avoid.
func BenchmarkMapBuild(b *testing.B) {
	for _, n := range []int{2000, 10000, 20000} {
		rng := rand.New(rand.NewSource(9))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: 4, Dims: 8, Sep: 6}, rng)
		// MapCacheSize -1: the benchmark times real builds, and a
		// select/rollback loop would otherwise hit the zoom cache from
		// iteration 2 on.
		e, err := core.NewExplorer(ds.Table, core.Options{
			Seed: 1, SampleSize: n, DependencySampleRows: 500, MapCacheSize: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		id, err := e.AddTheme(ds.Table.ColumnNames())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			condensedBytes := uint64(n) * uint64(n-1) / 2 * 8
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := e.SelectTheme(id); err != nil {
					b.Fatal(err)
				}
				if err := e.Rollback(); err != nil {
					b.Fatal(err)
				}
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
			b.ReportMetric(float64(perOp)/1e6, "MB/op")
			if n >= 20000 && perOp >= condensedBytes/2 {
				b.Fatalf("n=%d allocated %d B/op — quadratic-matrix scale (condensed = %d B)",
					n, perOp, condensedBytes)
			}
		})
	}
}

// BenchmarkZoom times the zoom action end to end (region row gather +
// fresh map) at scale, with the zoom cache disabled so every iteration
// really rebuilds.
func BenchmarkZoom(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 100000, K: 4, Dims: 8, Sep: 6}, rng)
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed: 1, SampleSize: 2000, DependencySampleRows: 500, MapCacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	id, err := e.AddTheme(ds.Table.ColumnNames())
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		b.Fatal(err)
	}
	path := m.Root.Leaves()[0].Path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Zoom(path...); err != nil {
			b.Fatal(err)
		}
		if err := e.Rollback(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoomCached is BenchmarkZoom with the zoom cache on: after the
// first build, every re-zoom into the same selection is a cache lookup.
// The gap between the two benchmarks is the repeat-navigation latency
// the cache removes.
func BenchmarkZoomCached(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 100000, K: 4, Dims: 8, Sep: 6}, rng)
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed: 1, SampleSize: 2000, DependencySampleRows: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	id, err := e.AddTheme(ds.Table.ColumnNames())
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.SelectTheme(id)
	if err != nil {
		b.Fatal(err)
	}
	path := m.Root.Leaves()[0].Path
	if _, err := e.Zoom(path...); err != nil { // warm the cache
		b.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Zoom(path...); err != nil {
			b.Fatal(err)
		}
		if err := e.Rollback(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := e.ReuseStats().Map.Hits; hits < b.N {
		b.Fatalf("cache hits = %d over %d re-zooms — the cache is not being used", hits, b.N)
	}
}

// BenchmarkZoomCold measures a cold zoom — a map-cache miss whose rows
// are a subset of an already-built parent selection. Each iteration
// prepares and runs the zoom without applying it, so the zoom never
// enters the cache and every iteration is a miss (that is the
// scenario): it draws its own sample of the region, fits and transforms
// it and clusters it. The sample of 2000 is above the engine's
// PAMThreshold, so every build is CLARA over a lazy oracle and no
// matrix over the sample exists: B/op is reported, and a zoom that
// allocates a matrix's bytes fails the run.
func BenchmarkZoomCold(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 40000, K: 4, Dims: 8, Sep: 6}, rng)
	e, err := core.NewExplorer(ds.Table, core.Options{
		Seed: 1, SampleSize: 2000, DependencySampleRows: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	id, err := e.AddTheme(ds.Table.ColumnNames())
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.SelectTheme(id) // the parent build
	if err != nil {
		b.Fatal(err)
	}
	var path []int
	for _, leaf := range m.Root.Leaves() {
		if leaf.Count() >= 10000 { // the n≥10k acceptance scenario
			path = leaf.Path
			break
		}
	}
	if path == nil {
		path = m.Root.Leaves()[0].Path
	}
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sample := 0
	for i := 0; i < b.N; i++ {
		zb, err := e.Prepare(core.Action{Kind: core.ActionZoom, Path: path})
		if err != nil {
			b.Fatal(err)
		}
		zm, err := zb.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		sample = zm.SampleSize
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// A zoom that allocates the bytes of a matrix over its sample has
	// built one above the crossover.
	perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
	if matrix := uint64(sample*(sample-1)/2) * 8; perOp >= matrix {
		b.Fatalf("a cold zoom over %d sampled objects allocated %d B, its matrix is %d B", sample, perOp, matrix)
	}
	if s := e.ReuseStats().Map; s.Hits != 0 {
		b.Fatalf("a cold zoom hit the cache: %+v", s)
	}
}

// BenchmarkSchedulerOverload drives the job scheduler past saturation —
// more tenants × sessions × jobs than the workers can absorb — and
// reports the p50 submit-to-apply latency of the jobs that completed,
// with and without deadline-based shedding. Shedding drops queued work
// whose deadline lapsed before dispatch, so the surviving jobs' latency
// distribution tightens: the number to watch is the p50 gap between the
// two sub-benchmarks.
func BenchmarkSchedulerOverload(b *testing.B) {
	for _, v := range []struct {
		name     string
		deadline time.Duration // 0 = no shedding
	}{
		{"no-shed", 0},
		{"shed-10ms", 10 * time.Millisecond},
	} {
		b.Run(v.name, func(b *testing.B) {
			var p50Sum, shedSum, doneSum float64
			for i := 0; i < b.N; i++ {
				p50, shed, done := overloadEpisode(v.deadline)
				if done == 0 {
					b.Fatal("no job completed")
				}
				p50Sum += float64(p50.Microseconds()) / 1e3
				shedSum += float64(shed)
				doneSum += float64(done)
			}
			b.ReportMetric(p50Sum/float64(b.N), "p50-ms")
			b.ReportMetric(shedSum/float64(b.N), "shed/op")
			b.ReportMetric(doneSum/float64(b.N), "done/op")
		})
	}
}

// overloadEpisode slams 8 sessions × 40 jobs of 200 µs wall time each
// (sessions spread over four tenants) onto a fresh 2-worker pool, far
// more work than the workers can absorb, and reports the p50
// submit-to-apply latency of the jobs that completed — the number
// deadline shedding exists to protect — with how many were shed and
// how many completed. A non-zero deadline gives every job that queue
// deadline so the dispatcher sheds the backlog.
func overloadEpisode(deadline time.Duration) (p50 time.Duration, shed, done int) {
	const (
		sessions   = 8
		perSession = 40
		jobCost    = 200 * time.Microsecond
	)
	p := jobs.NewPoolConfig(jobs.Config{Workers: 2})
	var mu sync.Mutex
	var latencies []time.Duration
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		session := fmt.Sprintf("t%d-s%d", s%4, s)
		for k := 0; k < perSession; k++ {
			submitted := time.Now()
			opts := jobs.SubmitOptions{}
			if deadline > 0 {
				opts.Deadline = submitted.Add(deadline)
			}
			j, err := p.Submit(session, session[:2], "work", func(ctx context.Context, j *jobs.Job) (any, error) {
				time.Sleep(jobCost)
				return nil, ctx.Err()
			}, opts)
			if err != nil {
				continue // unbounded queues: cannot happen
			}
			wg.Add(1)
			go func(j *jobs.Job, submitted time.Time) {
				defer wg.Done()
				if j.Wait(context.Background()) == nil {
					mu.Lock()
					latencies = append(latencies, time.Since(submitted))
					mu.Unlock()
				}
			}(j, submitted)
		}
	}
	wg.Wait()
	st := p.Stats()
	p.Close()
	if len(latencies) == 0 {
		return 0, int(st.Shed), 0
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	return latencies[len(latencies)/2], int(st.Shed), len(latencies)
}
