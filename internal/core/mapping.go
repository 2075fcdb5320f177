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
// the data) and input (regions the user can zoom into). A map is not
// changed once MapBuild.Run returns it, so the map cache and every state
// holding it share one; a state's annotations live on the State.
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
// Each stage produces an explicit intermediate — sample rows, the
// sample table, the fitted pipeline and the sample's vectors, the
// build's distance oracle, a clustering, the region tree — and every
// one but the tree lives in sc, the build's scratch: the sample's float
// columns in its slab, the vectors in its vector slab, a matrix oracle
// in its cluster scratch (see oracleStage). Nothing the map keeps
// references them, so the next build may overwrite them all.
func (e *Explorer) buildMapStaged(ctx context.Context, rng *rand.Rand, rows *store.RowSet, theme Theme, sc *buildScratch, progress func(float64)) (*Map, error) {
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
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, fmt.Errorf("core: empty selection")
	}

	// Stage 0: multi-scale sampling. The sample indices are drawn first
	// (index math only), then materialized by a gather projected onto
	// the theme's columns.
	sp := tr.Start("sample")
	sampleRows := e.sampleStage(rng, rows, sc)
	sample, err := e.gatherSample(sampleRows, theme, sc)
	sp.End()
	if err != nil {
		return nil, err
	}
	report(0.05)

	// Stage 1: preprocessing. A selection that is constant (or key-only)
	// on the theme's columns has no cluster structure left: degrade to a
	// single-region map instead of failing, so users can zoom to the
	// bottom of any region and still roll back.
	sp = tr.Start("prep")
	pipe, vecs, err := e.prepStage(sample, theme, sc)
	sp.End()
	if err != nil {
		report(1)
		return &Map{
			Theme: theme, K: 1, Silhouette: 0, TreeAccuracy: 1,
			SampleSize: len(sampleRows),
			Root:       e.wholeSelection(rows),
		}, nil
	}

	// Stage 2a: the distance oracle over the prepared vectors, and the
	// storage the engine chose for it.
	sp = tr.Start("oracle")
	oracle := e.oracleStage(vecs, sc)
	sp.End()
	storage := "lazy"
	if _, ok := oracle.(*cluster.DistMatrix); ok {
		storage = "matrix"
	}
	tr.SetAttr("oracle", storage)
	report(0.15)

	// Stage 2b: cluster detection with automatic k.
	sp = tr.Start("cluster")
	clustering, err := e.clusterStage(ctx, oracle, rng, sc, report)
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
	m, err := e.regionStage(ctx, oracle, pipe, sample, clustering, rows, theme, sc, report)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Distance work is the oracle's own evaluation count (cluster.Oracle's
	// DistEvals): a matrix's cells, a lazy oracle's rows and subset
	// matrices, every distance the build evaluated. The oracle is this
	// build's alone, so its count is exactly this build's evaluations.
	if d := oracle.DistEvals(); tr != nil && d > 0 {
		tr.Int("oracleDistEvals").Add(d)
	}
	return m, nil
}

// sampleStage draws the multi-scale sample: at most opts.SampleSize of
// the selection's rows, uniformly, ascending, in sc's ids: the draw's
// positions (its taken set in sc's taken words) mapped to rows in
// place, or, for a selection within the sample size, its rows. The
// draws are store.SampleIndices', in order.
func (e *Explorer) sampleStage(rng *rand.Rand, rows *store.RowSet, sc *buildScratch) []int {
	if rows.Len() <= e.data.opts.SampleSize {
		sc.ids = rows.AppendTo(sc.ids[:0])
		return sc.ids
	}
	sc.ids, sc.taken = store.SampleIndicesInto(rows.Len(), e.data.opts.SampleSize, rng, sc.ids, sc.taken)
	return rows.Pick(sc.ids)
}

// gatherSample materializes the build sample for one theme: only the
// theme's columns are gathered (projection pushdown — prep and tree
// fitting never read outside them, since the tree's features are
// pipe.UsedColumns() ⊆ theme.Columns), so a sparse sample over a
// segment touches only the pages of those columns it actually draws
// from. The table is the scratch's, refilled: its float columns are
// windows of the scratch's slab, which grows to the largest sample
// gathered into it. A theme column missing from the table is an error.
func (e *Explorer) gatherSample(rows []int, theme Theme, sc *buildScratch) (*store.Table, error) {
	floats, err := store.GatherInto(&sc.sample, e.data.table, rows, theme.Columns, sc.floats)
	sc.floats = floats
	if err != nil {
		return nil, err
	}
	return &sc.sample, nil
}

// prepStage refits the scratch's preprocessing pipeline on the gathered
// sample and vectorizes it into the vector slab of sc: one header per
// sample row, each a window of one float slab. The error return marks a
// degenerate sample — constant or key-only on the theme's columns.
func (e *Explorer) prepStage(sample *store.Table, theme Theme, sc *buildScratch) (*prep.Pipeline, [][]float64, error) {
	if err := sc.pipe.Refit(sample, theme.Columns); err != nil {
		return nil, nil, err
	}
	vecs, slab, err := sc.pipe.Transform(sample, sc.vecs, sc.vecSlab)
	sc.vecs, sc.vecSlab = vecs, slab
	return &sc.pipe, vecs, err
}

// oracleStage builds the distance oracle over the vectors at the
// dataset's one crossover, PAMThreshold: a matrix exactly when the
// cluster stage runs exact PAM, whose BUILD and SWAP read every pair
// many times, and a lazy oracle above it, where CLARA reads only its
// samples' and rounds' small matrices and k medoid rows per sample. Both
// answer with the same bits. The matrix is the cluster scratch's own
// (cluster.Scratch.Oracle), built on its last one's storage; the
// scratch is one build's alone, so concurrent builds never share one,
// and a build that goes lazy leaves it as it was, so no matrix above
// the crossover is ever built or kept.
func (e *Explorer) oracleStage(vecs [][]float64, sc *buildScratch) cluster.Oracle {
	return sc.cluster.Oracle(vecs, e.metric, e.data.opts.PAMThreshold)
}

// clusterStage runs cluster detection with automatic k over the build's
// oracle, in the cluster buffers of sc: the clustering's labels are the
// scratch's, read by the region stage and dropped with the build. Model
// selection dominates the build, so its progress is mapped onto the
// [0.15, 0.85] band.
func (e *Explorer) clusterStage(ctx context.Context, oracle cluster.Oracle, rng *rand.Rand, sc *buildScratch, report func(float64)) (*cluster.Clustering, error) {
	kMax := e.data.opts.MapKMax
	if kMax >= oracle.N() {
		kMax = oracle.N() - 1
	}
	if kMax < e.data.opts.MapKMin {
		return &cluster.Clustering{K: 1, Labels: make([]int, oracle.N()), Silhouette: 0}, nil
	}
	return sc.cluster.AutoK(oracle, cluster.AutoKOptions{
		KMin:           e.data.opts.MapKMin,
		KMax:           kMax,
		LargeThreshold: e.data.opts.PAMThreshold,
		Context:        ctx,
		Progress: func(done, total int) {
			report(0.15 + 0.7*float64(done)/float64(total))
		},
		Rand: rng,
	})
}

// regionStage fits the description tree on the sample's original tuples,
// in the tree buffers of sc, annotates each leaf with its cluster's mean
// silhouette the sweep left on the clustering, and mirrors the tree over
// the full selection (steps 4–5 of buildMapStaged).
func (e *Explorer) regionStage(ctx context.Context, oracle cluster.Oracle, pipe *prep.Pipeline, sample *store.Table, clustering *cluster.Clustering, rows *store.RowSet, theme Theme, sc *buildScratch, report func(float64)) (*Map, error) {
	m := &Map{Theme: theme, K: clustering.K, Silhouette: clustering.Silhouette,
		SampleSize: oracle.N()}
	if clustering.K < 2 {
		m.Root = e.wholeSelection(rows)
		m.TreeAccuracy = 1
		report(1)
		return m, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	features := pipe.UsedColumns()
	tr, err := sc.tree.Fit(sample, features, clustering.Labels, clustering.K, tree.Options{
		MaxDepth: e.data.opts.TreeMaxDepth,
		MinLeaf:  e.data.opts.TreeMinLeaf,
	})
	if err != nil {
		return nil, fmt.Errorf("core: describing theme %d: %w", theme.ID, err)
	}
	tr.Prune()
	m.Tree = tr
	m.TreeAccuracy = tr.FitAccuracy()
	report(0.92)

	// One pass over the selection's pages routes it through the whole
	// tree; the regions mirror the tree over the routing, and build their
	// rows only when read.
	splits, nodes := tr.Root.Splits()
	m.Root = regionsFromTree(nodes, splits, store.Route(e.data.table, splits, rows), 0, nil, nil, clustering.ClusterSilhouettes)
	report(1)
	return m, nil
}

// wholeSelection is the one region of a map without structure: the
// selection itself, as node 0 of a routing through no split.
func (e *Explorer) wholeSelection(rows *store.RowSet) *Region {
	return &Region{routed: store.Route(e.data.table, store.SplitTree{{}}, rows), ClusterID: 0, Silhouette: math.NaN()}
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
	if len(cond) > 0 {
		r.desc = r.Condition.String()
	}
	if node.IsLeaf() {
		r.ClusterID = node.Class
		if node.Class >= 0 && node.Class < len(perCluster) {
			r.Silhouette = perCluster[node.Class]
		}
		return r
	}
	r.Split, r.split = node.Split, node.Split.String()
	neg := tree.Complement(node.Split, node.SplitMissing)
	r.Children = []*Region{
		regionsFromTree(nodes, splits, routed, i+1, append(path, 0), append(cond, node.Split), perCluster),
		regionsFromTree(nodes, splits, routed, i+splits[i].No, append(path, 1), append(cond, neg), perCluster),
	}
	return r
}
