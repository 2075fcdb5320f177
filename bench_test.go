package blaeu

// Benchmark harness: one testing.B benchmark per figure, demonstration
// scenario and performance claim of the paper (the demo paper has no
// numeric tables; its "evaluation" is Figures 1–4, the three §4.2
// scenarios, and the §3 performance claims — `blaeu-bench -list` is the
// index).
// Run with: go test -bench=. -benchmem (`make bench`); CI runs every
// benchmark once (`make bench-smoke`).
//
// This file and internal/store's benchmarks answer questions about a
// kernel; questions about a click are the ledger's (bench/load,
// `make bench-click`). The figure-level benchmarks execute the same
// runners as the blaeu-bench command at reduced scale so a full -bench=.
// pass stays in minutes; the micro-benchmarks below time the individual
// algorithms at fixed sizes.

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
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tree"
)

func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Config{Seed: 1, Scale: scale}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure reproductions ---

func BenchmarkF1aThemes(b *testing.B)         { benchExperiment(b, "f1a", 0.25) }
func BenchmarkF1bMap(b *testing.B)            { benchExperiment(b, "f1b", 0.25) }
func BenchmarkF1cZoom(b *testing.B)           { benchExperiment(b, "f1c", 0.25) }
func BenchmarkF1dProject(b *testing.B)        { benchExperiment(b, "f1d", 0.25) }
func BenchmarkF2DependencyGraph(b *testing.B) { benchExperiment(b, "f2", 0.5) }
func BenchmarkF3Pipeline(b *testing.B)        { benchExperiment(b, "f3", 0.25) }
func BenchmarkF4Architecture(b *testing.B)    { benchExperiment(b, "f4", 0.5) }

// --- Demonstration scenarios (§4.2) ---

func BenchmarkS1Hollywood(b *testing.B) { benchExperiment(b, "s1", 1) }
func BenchmarkS2Countries(b *testing.B) { benchExperiment(b, "s2", 0.25) }
func BenchmarkS3LOFAR(b *testing.B)     { benchExperiment(b, "s3", 0.1) }

// --- Performance claims (§3) ---

func BenchmarkE1Sampling(b *testing.B)     { benchExperiment(b, "e1", 0.1) }
func BenchmarkE2ClaraVsPam(b *testing.B)   { benchExperiment(b, "e2", 0.25) }
func BenchmarkE3MCSilhouette(b *testing.B) { benchExperiment(b, "e3", 0.25) }
func BenchmarkE4AutoK(b *testing.B)        { benchExperiment(b, "e4", 0.5) }
func BenchmarkE5SwapEngines(b *testing.B)  { benchExperiment(b, "e5", 0.25) }
func BenchmarkE6OracleLayer(b *testing.B)  { benchExperiment(b, "e6", 0.25) }

// --- Ablations ---

func BenchmarkA1MIvsCorr(b *testing.B)    { benchExperiment(b, "a1", 0.5) }
func BenchmarkA2TreeDepth(b *testing.B)   { benchExperiment(b, "a2", 0.25) }
func BenchmarkA4DepSampling(b *testing.B) { benchExperiment(b, "a4", 0.25) }

// --- Micro-benchmarks: the algorithms under the maps ---

func benchVectors(n, dims, k int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: k, Dims: dims, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
	if err != nil {
		panic(err)
	}
	return vecs, ds.Truth["rows"]
}

// pamBenchSizes is the shared grid of BenchmarkPAM (the engine) and
// BenchmarkPAMClassic (the textbook SWAP loop), so the two benchmarks are
// directly comparable; the headline comparison of the FasterPAM PR is
// n=1000, k=8.
var pamBenchSizes = []struct{ n, k int }{
	{200, 4}, {500, 4}, {1000, 4}, {1000, 8},
}

func benchPAMImpl(b *testing.B, pam func(cluster.Oracle, int) (*cluster.Clustering, error)) {
	b.Helper()
	for _, sz := range pamBenchSizes {
		vecs, _ := benchVectors(sz.n, 6, sz.k)
		m := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})
		b.Run(fmt.Sprintf("n=%d/k=%d", sz.n, sz.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pam(m, sz.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPAM(b *testing.B)        { benchPAMImpl(b, cluster.PAM) }
func BenchmarkPAMClassic(b *testing.B) { benchPAMImpl(b, cluster.PAMClassic) }

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

// The four benchmarks below are the cluster stage's distance kernels at
// the sizes of an explore_mem click (bench/load): a 1100-tuple sample in
// 40 prepared dimensions, and a 668-object index view of it. A derived
// zoom keeps about that many but clusters them over a dense matrix of
// its own; views serve CLARA's samples and the Monte-Carlo silhouette.

func BenchmarkDistMatrixBuild(b *testing.B) {
	vecs, _ := benchVectors(1100, 40, 4)
	// The same vectors with one value in eight missing, as ImputeNone
	// leaves them: the fill's fallback to one Dist per cell.
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

// benchView returns a 668-of-1100 view of one matrix, over an ascending
// idx or the same idx shuffled, as the ascending view's contract allows.
func benchView(shuffled bool) cluster.Oracle {
	vecs, _ := benchVectors(1100, 40, 4)
	rng := rand.New(rand.NewSource(11))
	idx := store.SampleIndices(len(vecs), 668, rng)
	if shuffled {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return cluster.ComputeDistMatrix(vecs, stats.Euclidean{}).Subset(idx)
}

func BenchmarkAutoKExactView(b *testing.B) {
	view := benchView(false)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.AutoK(view, cluster.AutoKOptions{KMin: 2, KMax: 6, Rand: rand.New(rand.NewSource(1))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewRowInto(b *testing.B) {
	for _, order := range []string{"ascending", "shuffled"} {
		view := benchView(order == "shuffled")
		row := make([]float64, view.N())
		b.Run(order, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := range row {
					view.RowInto(r, row)
				}
			}
		})
	}
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
// of the same region of 100 000 tuples, on the clone a map-cache hit
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
				cluster.MCSilhouette(o, labels, 3, cluster.MCSilhouetteOptions{Rand: rng})
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

func BenchmarkCARTFit(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		rng := rand.New(rand.NewSource(9))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: 4, Dims: 6, Sep: 6}, rng)
		labels := ds.Truth["rows"]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tree.Fit(ds.Table, ds.Table.ColumnNames(), labels, 4,
					tree.Options{MaxDepth: 3, MinLeaf: 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPreprocess(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.Hollywood(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prep.FitTransform(ds.Table, nil, prep.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkZoomColdDerived measures derivation on a cold zoom — a
// map-cache miss whose rows are a subset of an already-built parent
// selection — against the same zoom built entirely from scratch. Each
// iteration prepares and runs the zoom without applying it, so the zoom
// never enters the cache and every iteration is a miss (that is the
// scenario); the cold run switches derivation off, the derived one
// re-slices the parent's cached sample and vectors (skipping sampling
// and prep) and clusters the overlap, a smaller and still uniform
// sample, over a matrix of its own. The sample of 2000 is below
// cluster.DefaultMaterializeThreshold, so every build materializes, and
// each computes its matrix on the storage of the last build's: B/op is
// reported, and a zoom that allocates its matrix's bytes fails the run.
func BenchmarkZoomColdDerived(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 40000, K: 4, Dims: 8, Sep: 6}, rng)
	for _, mode := range []string{"cold", "derived"} {
		derivedMin := -1
		if mode == "derived" {
			derivedMin = 0 // engine default
		}
		e, err := core.NewExplorer(ds.Table, core.Options{
			Seed: 1, SampleSize: 2000, DependencySampleRows: 500,
			DerivedSampleMin: derivedMin,
		})
		if err != nil {
			b.Fatal(err)
		}
		id, err := e.AddTheme(ds.Table.ColumnNames())
		if err != nil {
			b.Fatal(err)
		}
		m, err := e.SelectTheme(id) // the parent build (caches its artifact)
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
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sample := 0
			for i := 0; i < b.N; i++ {
				zb, err := e.PrepareZoom(path...)
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
			// The parent build left its matrix in the explorer's scratch
			// slot, and every zoom computes its own no larger one on that
			// storage: a zoom that allocates its matrix's bytes has
			// allocated the matrix.
			perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
			if matrix := uint64(sample*(sample-1)/2) * 8; perOp >= matrix {
				b.Fatalf("a %s zoom over %d sampled objects allocated %d B, its matrix is %d B", mode, sample, perOp, matrix)
			}
			s := e.ReuseStats().Map
			if mode == "derived" && s.Derived < b.N {
				b.Fatalf("only %d of %d zooms derived their sample: %+v", s.Derived, b.N, s)
			}
			if mode == "cold" && (s.Derived != 0 || s.Hits != 0) {
				b.Fatalf("cold run reused the cache: %+v", s)
			}
		})
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
