package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/store"
	"repro/internal/tree"
)

// Map is a data map: the interactive visualization model of the clusters
// in the current selection under one theme's columns (paper §2). It is
// built by the three-stage pipeline of Fig. 3 — preprocessing, cluster
// detection, cluster description — and doubles as output (a summary of
// the data) and input (regions the user can zoom into).
type Map struct {
	// Theme is the theme whose columns the map clusters on.
	Theme Theme
	// Root is the region hierarchy.
	Root *Region
	// K is the number of clusters the map describes.
	K int
	// Silhouette is the (Monte-Carlo) average silhouette width of the
	// sample clustering — the map-quality signal shown to users.
	Silhouette float64
	// TreeAccuracy is the fidelity of the decision-tree description to
	// the sample clustering, the "loss of accuracy" trade-off of §3.
	TreeAccuracy float64
	// SampleSize is the number of tuples actually clustered.
	SampleSize int
	// Tree is the fitted description tree.
	Tree *tree.Tree
}

// buildMapStaged runs the mapping pipeline of Fig. 3 on the given
// selection and the theme's columns:
//
//  1. multi-scale sampling: cluster at most opts.SampleSize tuples;
//  2. preprocessing: keys dropped, continuous variables normalized,
//     categoricals dummy-encoded, missing values imputed;
//  3. cluster detection: PAM (or CLARA), k chosen by silhouette;
//  4. cluster description: a CART tree trained on the original tuples
//     with cluster IDs as labels;
//  5. the tree is applied to the *full* selection, so region counts
//     reflect all tuples, not just the sample.
//
// Its only caller is MapBuild.Run, and the build's moving parts are
// explicit so it can run detached from the Explorer on a scheduler
// worker: ctx cancels the build at stage and per-k granularity, rng is
// the build's own randomness source (a child RNG seeded at prepare
// time, so a build never touches e.rng), and progress — may be nil —
// receives monotone completion fractions in [0, 1]. Apart from rng, the
// method only reads immutable Explorer state (table, options, metric),
// which is what makes lock-free execution safe.
//
// Each stage produces an explicit intermediate — sample rows, a
// buildArtifact (sample rows, fitted pipeline, vectors), the build's
// distance oracle, a clustering, the region tree — and the artifact is
// cacheable: when art is non-nil (derived from a cached parent via
// deriveArtifact) the sample and prep stages are skipped. The oracle is
// never cached: every build that clusters builds its own over its own
// vectors, a matrix on the storage of the explorer's spent one (see
// oracleStage), so nothing a cache holds outlives the build's
// distances. The finished artifact is returned alongside the map so a
// cold build's can be kept in its map-cache entry; it is nil when
// preprocessing degenerated.
func (e *Explorer) buildMapStaged(ctx context.Context, rng *rand.Rand, rows *store.RowSet, theme Theme, art *buildArtifact, progress func(float64)) (*Map, *buildArtifact, error) {
	report := func(f float64) {
		if progress != nil {
			progress(f)
		}
	}
	// The build trace, when one rides the context. Every obs call below
	// is nil-safe, and the time reads happen inside obs through its
	// injected clock — core itself never touches the wall clock.
	tr := obs.TraceFrom(ctx)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if rows.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty selection")
	}

	var sample *store.Table
	if art == nil {
		// Stage 0: multi-scale sampling. The sample indices are drawn
		// first (index math only), then materialized by a gather
		// projected onto the theme's columns.
		sp := tr.Start("sample")
		sampleRows := e.sampleStage(rng, rows)
		var err error
		sample, err = e.gatherSample(sampleRows, theme)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		report(0.05)

		// Stage 1: preprocessing. A selection that is constant (or
		// key-only) on the theme's columns has no cluster structure left:
		// degrade to a single-region map instead of failing, so users can
		// zoom to the bottom of any region and still roll back.
		sp = tr.Start("prep")
		art, err = e.prepStage(sample, sampleRows, theme)
		sp.End()
		if err != nil {
			report(1)
			return &Map{
				Theme: theme, K: 1, Silhouette: 0, TreeAccuracy: 1,
				SampleSize: len(sampleRows),
				Root:       e.wholeSelection(rows),
			}, nil, nil
		}
	} else {
		// Derived artifact: the sample is already chosen and prepped;
		// only the description stage still needs the raw tuples. The
		// gather is this path's whole sampling work, so it books under
		// the sample span.
		sp := tr.Start("sample")
		var err error
		sample, err = e.gatherSample(art.sampleRows, theme)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}

	// Stage 2a: the distance oracle over the prepared vectors, and the
	// storage the engine chose for it.
	sp := tr.Start("oracle")
	oracle, matrix := e.oracleStage(art.vecs)
	sp.End()
	storage := "lazy"
	if matrix != nil {
		storage = "matrix"
	}
	tr.SetAttr("oracle", storage)
	report(0.15)

	m, err := e.mapOver(ctx, oracle, art, sample, rows, theme, rng, report)
	// The matrix goes back to the slot on return, error or not. A panic
	// skips this and drops it: the next build allocates afresh rather
	// than trust storage a failed build was writing.
	if matrix != nil {
		e.scratch.CompareAndSwap(nil, matrix)
	}
	if err != nil {
		return nil, nil, err
	}
	// Distance work is the oracle's own evaluation count (cluster.Oracle's
	// DistEvals) — storage-based and free, where wrapping the per-call
	// Dist path costs several percent of a build. The oracle is this
	// build's alone, so its count is exactly this build's evaluations.
	if d := oracle.DistEvals(); tr != nil && d > 0 {
		tr.Int("oracleDistEvals").Add(d)
	}
	return m, art, nil
}

// mapOver runs cluster detection and description over the build's
// oracle (stages 2b–4 of buildMapStaged).
func (e *Explorer) mapOver(ctx context.Context, oracle cluster.Oracle, art *buildArtifact, sample *store.Table, rows *store.RowSet, theme Theme, rng *rand.Rand, report func(float64)) (*Map, error) {
	tr := obs.TraceFrom(ctx)
	// Stage 2b: cluster detection with automatic k.
	sp := tr.Start("cluster")
	clustering, err := e.clusterStage(ctx, oracle, rng, report)
	sp.End()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("core: clustering theme %d: %w", theme.ID, err)
	}
	report(0.85)

	// Stages 3–4: cluster description and extension to the full
	// selection.
	sp = tr.Start("region")
	m, err := e.regionStage(ctx, oracle, art, sample, clustering, rows, theme, report)
	sp.End()
	return m, err
}

// sampleStage draws the multi-scale sample: at most opts.SampleSize of
// the selection's rows, uniformly, ascending.
func (e *Explorer) sampleStage(rng *rand.Rand, rows *store.RowSet) []int {
	if rows.Len() <= e.opts.SampleSize {
		return rows.AppendTo(nil)
	}
	return rows.Pick(store.SampleIndices(rows.Len(), e.opts.SampleSize, rng))
}

// gatherSample materializes the build sample for one theme: only the
// theme's columns are gathered (projection pushdown — prep, tree
// fitting and accuracy never read outside them, since the tree's
// features are pipe.UsedColumns() ⊆ theme.Columns), so a sparse sample
// over a segment touches only the pages of those columns it actually
// draws from. A theme column missing from the table is an error.
func (e *Explorer) gatherSample(rows []int, theme Theme) (*store.Table, error) {
	return store.ScanGather(e.table, rows, theme.Columns, 0)
}

// prepStage fits the preprocessing pipeline on the gathered sample and
// wraps the result in a build artifact. The error return marks a
// degenerate sample — constant or key-only on the theme's columns.
func (e *Explorer) prepStage(sample *store.Table, sampleRows []int, theme Theme) (*buildArtifact, error) {
	pipe, vecs, err := prep.FitTransform(sample, theme.Columns, e.opts.Prep)
	if err != nil {
		return nil, err
	}
	return &buildArtifact{sampleRows: sampleRows, pipe: pipe, vecs: vecs}, nil
}

// oracleStage builds the distance oracle over the vectors and returns
// it, with the matrix it is when the engine materialized one (nil when
// it went lazy). cluster.NewOracle chooses by size alone — a matrix for
// small samples (fast repeated access by PAM), lazy above
// cluster.DefaultMaterializeThreshold — and both answer with the same
// bits, so the choice moves memory and speed, never the map. A matrix is
// built on the storage of the explorer's spent one: the slot is emptied
// by the swap, so two concurrent builds never share it (the second
// allocates), and a build that goes lazy puts the spent matrix back.
func (e *Explorer) oracleStage(vecs [][]float64) (cluster.Oracle, *cluster.DistMatrix) {
	spent := e.scratch.Swap(nil)
	o := cluster.NewOracle(vecs, e.metric, spent)
	m, _ := o.(*cluster.DistMatrix)
	if m == nil && spent != nil {
		e.scratch.CompareAndSwap(nil, spent)
	}
	return o, m
}

// clusterStage runs cluster detection with automatic k over the build's
// oracle. Model selection dominates the build, so its progress is mapped
// onto the [0.15, 0.85] band.
func (e *Explorer) clusterStage(ctx context.Context, oracle cluster.Oracle, rng *rand.Rand, report func(float64)) (*cluster.Clustering, error) {
	kMax := e.opts.MapKMax
	if kMax >= oracle.N() {
		kMax = oracle.N() - 1
	}
	if kMax < e.opts.MapKMin {
		return &cluster.Clustering{K: 1, Labels: make([]int, oracle.N()), Silhouette: 0}, nil
	}
	return cluster.AutoK(oracle, cluster.AutoKOptions{
		KMin:                  e.opts.MapKMin,
		KMax:                  kMax,
		LargeThreshold:        e.opts.PAMThreshold,
		MCSilhouetteThreshold: e.opts.PAMThreshold,
		Context:               ctx,
		Progress: func(done, total int) {
			report(0.15 + 0.7*float64(done)/float64(total))
		},
		Rand: rng,
	})
}

// regionStage fits the description tree on the sample's original tuples
// and mirrors it over the full selection (steps 4–5 of buildMapStaged).
func (e *Explorer) regionStage(ctx context.Context, oracle cluster.Oracle, art *buildArtifact, sample *store.Table, clustering *cluster.Clustering, rows *store.RowSet, theme Theme, report func(float64)) (*Map, error) {
	m := &Map{Theme: theme, K: clustering.K, Silhouette: clustering.Silhouette,
		SampleSize: len(art.sampleRows)}
	if clustering.K < 2 {
		m.Root = e.wholeSelection(rows)
		m.TreeAccuracy = 1
		report(1)
		return m, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	features := art.pipe.UsedColumns()
	tr, err := tree.Fit(sample, features, clustering.Labels, clustering.K, tree.Options{
		MaxDepth: e.opts.TreeMaxDepth,
		MinLeaf:  e.opts.TreeMinLeaf,
	})
	if err != nil {
		return nil, fmt.Errorf("core: describing theme %d: %w", theme.ID, err)
	}
	tr.Prune()
	m.Tree = tr
	m.TreeAccuracy = tr.Accuracy(sample, clustering.Labels)
	report(0.92)

	// Per-cluster quality for leaf annotation; the exact scorer left it on
	// the clustering, the Monte-Carlo one costs one more O(n²) pass.
	perCluster := clustering.ClusterSilhouettes
	if perCluster == nil {
		perCluster = cluster.SilhouettePerCluster(oracle, clustering.Labels, clustering.K)
	}

	// One pass over the selection's pages routes it through the whole
	// tree; the regions mirror the tree over the routing, and build their
	// rows only when read.
	splits, nodes := tr.Root.Splits()
	m.Root = regionsFromTree(nodes, splits, store.Route(e.table, splits, rows), 0, nil, nil, perCluster)
	report(1)
	return m, nil
}

// wholeSelection is the one region of a map without structure: the
// selection itself, as node 0 of a routing through no split.
func (e *Explorer) wholeSelection(rows *store.RowSet) *Region {
	return &Region{routed: store.Route(e.table, store.SplitTree{{}}, rows), ClusterID: 0, Silhouette: math.NaN()}
}

// regionsFromTree mirrors the fitted description tree over the routed
// selection: node i of the flattened tree becomes the region of node i
// of routed, the selection tuples satisfying the node's predicate path.
func regionsFromTree(nodes []*tree.Node, splits store.SplitTree, routed *store.Routing, i int, path []int, cond store.And, perCluster []float64) *Region {
	node := nodes[i]
	r := &Region{
		Path:       append([]int(nil), path...),
		Condition:  append(store.And(nil), cond...),
		routed:     routed,
		node:       i,
		ClusterID:  -1,
		Silhouette: math.NaN(),
	}
	if node.IsLeaf() {
		r.ClusterID = node.Class
		if node.Class >= 0 && node.Class < len(perCluster) {
			r.Silhouette = perCluster[node.Class]
		}
		return r
	}
	r.Split = node.Split
	neg := tree.Complement(node.Split, node.SplitMissing)
	r.Children = []*Region{
		regionsFromTree(nodes, splits, routed, i+1, append(path, 0), append(cond, node.Split), perCluster),
		regionsFromTree(nodes, splits, routed, i+splits[i].No, append(path, 1), append(cond, neg), perCluster),
	}
	return r
}
