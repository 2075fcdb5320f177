package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prep"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tree"
)

// openPathEvery spaces the layer probe's open-path calls.
const openPathEvery = 3

// samples collects the timings of the layer probe, by metric stem
// ("tree.fit", "store.scan_gather", ...), in milliseconds.
type samples map[string][]float64

func (s samples) add(name string, ms float64) { s[name] = append(s[name], ms) }

// prober times calls into each layer's public functions on the
// workload's relation and records each call as a span.
type prober struct {
	rec    *recorder
	out    samples
	trace  int
	parent int
}

// timed runs f as one span of the current probe pass.
func (p *prober) timed(name string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
	p.out.add(name, ms)
	p.rec.mu.Lock()
	p.rec.addSpanLocked(p.trace, p.parent, name, p.rec.sinceStartMs(t0), p.rec.sinceStartMs(t1))
	p.rec.mu.Unlock()
	return ms
}

// pass opens a new trace for one probe pass and runs it under a root
// span.
func (p *prober) pass(f func()) {
	p.rec.mu.Lock()
	p.rec.nextTrace++
	p.trace = p.rec.nextTrace
	root := p.rec.addSpanLocked(p.trace, 0, "probe.pass", 0, 0)
	p.rec.mu.Unlock()
	p.parent = root
	t0 := time.Now()
	f()
	p.rec.mu.Lock()
	p.rec.spans[root-1].StartMs = p.rec.sinceStartMs(t0)
	p.rec.spans[root-1].EndMs = p.rec.sinceStartMs(time.Now())
	p.rec.mu.Unlock()
}

// layerProbe walks the paper's Fig. 3 pipeline layer by layer, passes
// times, through the same public functions core's staged build calls,
// with core's default options: SampleIndices → ScanGather →
// prep.FitTransform → cluster.BuildOracle → cluster.AutoK → tree.Fit /
// Accuracy → cluster.SilhouettePerCluster → PartitionRows per split →
// render.SVGMap, plus the open path (IsLikelyKey, dependency graph,
// core.NewExplorer) and the store calls behind filter and highlight.
func layerProbe(rec *recorder, rel store.Relation, seed int64, sample, passes int) (samples, error) {
	p := &prober{rec: rec, out: make(samples)}
	opts := core.Options{Seed: seed, SampleSize: sample}
	n := rel.NumRows()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// The theme the passes map: the first one a session would be shown.
	ex, err := core.NewExplorer(rel, opts)
	if err != nil {
		return nil, err
	}
	theme := ex.Themes()[0]
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	for i := 0; i < passes && firstErr == nil; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		p.pass(func() {
			// The open path, on every third pass: it is no stage of the
			// Fig. 3 pipeline and, at IsLikelyKey over every column, the
			// most expensive call of the probe.
			if i%openPathEvery == 0 {
				p.timed("core.open", func() {
					_, err := core.NewExplorer(rel, opts)
					fail(err)
				})
				var cols []string
				p.timed("store.likely_key", func() {
					for _, name := range rel.ColumnNames() {
						if !store.IsLikelyKey(rel.ColumnByName(name)) {
							cols = append(cols, name)
						}
					}
				})
				p.timed("graph.dependency", func() {
					_, err := graph.BuildDependencyGraph(rel, cols, graph.DependencyOptions{SampleRows: sample, Rand: rng})
					fail(err)
				})
				if firstErr != nil {
					return
				}
			}
			var rows []int
			var sampleT *store.Table
			p.timed("store.scan_gather", func() {
				rows = store.SampleIndices(n, sample, rng)
				var err error
				sampleT, err = store.ScanGather(rel, rows, theme.Columns, 0)
				fail(err)
			})
			var pipe *prep.Pipeline
			var vecs [][]float64
			p.timed("prep.fit_transform", func() {
				var err error
				pipe, vecs, err = prep.FitTransform(sampleT, theme.Columns, prep.NewOptions())
				fail(err)
			})
			if firstErr != nil {
				return
			}
			var oracle cluster.Oracle
			p.timed("cluster.build_oracle", func() {
				oracle = cluster.BuildOracle(vecs, stats.Euclidean{}, cluster.OracleAuto, 0, cluster.KNNOracleOptions{})
			})
			var cl *cluster.Clustering
			p.timed("cluster.autok", func() {
				d := core.DefaultOptions()
				var err error
				cl, err = cluster.AutoK(oracle, cluster.AutoKOptions{
					KMin: d.MapKMin, KMax: d.MapKMax,
					LargeThreshold: d.PAMThreshold, MCSilhouetteThreshold: d.PAMThreshold,
					CLARA: cluster.CLARAOptions{Parallelism: d.Parallelism},
					Rand:  rng,
				})
				fail(err)
			})
			if firstErr != nil {
				return
			}
			var tr *tree.Tree
			p.timed("tree.fit", func() {
				d := core.DefaultOptions()
				var err error
				tr, err = tree.Fit(sampleT, pipe.UsedColumns(), cl.Labels, cl.K,
					tree.Options{MaxDepth: d.TreeMaxDepth, MinLeaf: d.TreeMinLeaf})
				fail(err)
				if err == nil {
					tr.Prune()
				}
			})
			if firstErr != nil {
				return
			}
			m := &core.Map{Theme: theme, K: cl.K, Silhouette: cl.Silhouette, SampleSize: len(rows), Tree: tr}
			p.timed("tree.accuracy", func() { m.TreeAccuracy = tr.Accuracy(sampleT, cl.Labels) })
			var perCluster []float64
			p.timed("cluster.silhouette_per_cluster", func() {
				perCluster = cluster.SilhouettePerCluster(oracle, cl.Labels, cl.K)
			})
			partitioned := 0
			ms := p.timed("store.partition", func() {
				m.Root = regionsOf(rel, tr.Root, all, nil, perCluster, &partitioned)
			})
			if partitioned > 0 {
				p.out.add("store.partition_per_mrow", ms/(float64(partitioned)/1e6))
			}
			p.timed("render.svg", func() { _ = render.SVGMap(m, 720, 480) })

			// The store calls behind the filter and highlight clicks: a
			// full-relation predicate scan, and a column gather with its
			// statistics over the map's first region.
			col := theme.Columns[0]
			st := store.Stats(sampleT, col)
			ms = p.timed("store.filter", func() { _ = rel.Filter(store.NumCmp{Col: col, Op: store.Ge, Val: st.Mean}) })
			p.out.add("store.filter_per_mrow", ms/(float64(n)/1e6))
			region := m.Root
			if len(region.Children) > 0 {
				region = region.Children[0]
			}
			p.timed("store.highlight_stats", func() { _ = store.ComputeStats(rel.ColumnByName(col).Gather(region.Rows)) })
		})
	}
	return p.out, firstErr
}

// regionsOf mirrors a fitted tree over the selection as core's region
// stage does: one PartitionRows call per split. partitioned counts the
// rows those calls were handed.
func regionsOf(rel store.Relation, node *tree.Node, rows, path []int, perCluster []float64, partitioned *int) *core.Region {
	r := &core.Region{Path: append([]int(nil), path...), Rows: rows, ClusterID: -1, Silhouette: math.NaN()}
	if node.IsLeaf() {
		r.ClusterID = node.Class
		if node.Class >= 0 && node.Class < len(perCluster) {
			r.Silhouette = perCluster[node.Class]
		}
		return r
	}
	r.Split = node.Split
	*partitioned += len(rows)
	yes, no := store.PartitionRows(rel, node.Split, rows)
	r.Children = []*core.Region{
		regionsOf(rel, node.Left, yes, append(path, 0), perCluster, partitioned),
		regionsOf(rel, node.Right, no, append(path, 1), perCluster, partitioned),
	}
	return r
}

// ingestProbe times both ingest paths on one small CSV of the
// workload's own table, so every workload's traced run reports both
// rates: MB of CSV per second through ReadCSVFile and through
// BuildSegment. It also returns the segment's bytes per stored value.
func ingestProbe(rec *recorder, cfg *runConfig, rows int, seed int64) (readMBs, buildMBs, bytesPerValue float64, err error) {
	csvPath := filepath.Join(cfg.dir, "probe.csv")
	segPath := filepath.Join(cfg.dir, "probe.seg")
	defer os.Remove(csvPath)
	defer os.Remove(segPath)
	size, err := writeTable(csvPath, cfg.wl, rows, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	p := &prober{rec: rec, out: make(samples)}
	values := 0
	p.pass(func() {
		var t *store.Table
		ms := p.timed("store.read_csv", func() { t, err = store.ReadCSVFile(csvPath, nil) })
		readMBs = float64(size) / 1e6 / (ms / 1e3)
		if err != nil {
			return
		}
		values = t.NumRows() * t.NumCols()
		ms = p.timed("store.build_segment", func() { _, err = store.BuildSegment(csvPath, segPath, nil) })
		buildMBs = float64(size) / 1e6 / (ms / 1e3)
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ingest probe: %w", err)
	}
	st, err := os.Stat(segPath)
	if err != nil {
		return 0, 0, 0, err
	}
	return readMBs, buildMBs, float64(st.Size()) / float64(values), nil
}
