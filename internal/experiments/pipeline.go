package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/prep"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tree"
)

func init() {
	register("f3", "Fig.3 — mapping pipeline fidelity (cluster vs tree description)", runF3)
	register("e1", "§3 sampling — map accuracy vs sample size", runE1)
	register("e2", "§3 CLARA vs PAM — quality/runtime crossover", runE2)
	register("e3", "§3 Monte-Carlo silhouette — error and speedup vs exact", runE3)
	register("e4", "§3 auto-k — silhouette-chosen k vs planted k", runE4)
	register("a1", "ablation — MI vs Pearson dependency for theme detection", runA1)
	register("a2", "ablation — tree depth vs description fidelity", runA2)
	register("a4", "ablation — dependency-graph sample size vs theme recovery", runA4)
}

// runA4 sweeps the second sampling axis: how many rows the dependency
// graph needs for reliable theme detection (the paper samples for both
// map construction and the statistics behind themes).
func runA4(cfg Config) (*Result, error) {
	res := &Result{ID: "a4", Title: "Ablation: dependency-graph sample size vs theme recovery",
		Headers: []string{"sampled rows", "theme recovery", "graph build time"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.scaled(50000)
	// Weak dependencies (high within-theme noise) so the estimate quality
	// actually depends on the sample size.
	specs := []datagen.ThemeSpec{
		{Name: "alpha", Cols: 12, K: 3, Sep: 1.2, Noise: 2},
		{Name: "beta", Cols: 12, K: 2, Sep: 1.2, Noise: 2},
		{Name: "gamma", Cols: 12, K: 4, Sep: 1.2, Noise: 2},
		{Name: "delta", Cols: 12, K: 2, Sep: 1.2, Noise: 2},
	}
	ds := datagen.PlantedThemes(n, specs, rng)
	for _, s := range []int{25, 50, 100, 250, 500, 1000, 2000} {
		if s > n {
			continue
		}
		start := time.Now()
		g, err := graph.BuildDependencyGraph(ds.Table, nil, graph.DependencyOptions{
			SampleRows: s, Rand: rand.New(rand.NewSource(cfg.Seed)),
		})
		if err != nil {
			return nil, err
		}
		c, err := g.Partition(len(specs))
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		groups := make([][]string, len(specs))
		for vi, l := range c.Labels {
			groups[l] = append(groups[l], g.Names()[vi])
		}
		rec := eval.SetRecovery(ds.Themes, groups)
		res.addRow(fmt.Sprintf("%d", s), fmt.Sprintf("%.3f", rec),
			elapsed.Round(time.Millisecond).String())
	}
	res.note("paper: statistics are estimated on samples to keep latency low (§3)")
	res.note("expectation: recovery saturates by a few hundred rows — MI estimates need few samples when dependencies are strong")
	return res, nil
}

// runF3 reproduces the pipeline of Fig. 3 end to end on planted clusters
// and quantifies the "loss of accuracy" the paper attributes to the
// decision-tree description stage (§3).
func runF3(cfg Config) (*Result, error) {
	res := &Result{ID: "f3", Title: "Mapping pipeline: preprocess → cluster → describe (paper Fig. 3)",
		Headers: []string{"k", "noise", "cluster ARI", "tree fidelity", "end-to-end ARI", "leaves"}}
	n := cfg.scaled(2000)
	for _, k := range []int{2, 3, 4, 5} {
		for _, noise := range []float64{0.5, 1.0, 2.0} {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(k*100) + int64(noise*10)))
			ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: k, Dims: 6, Sep: 6, Noise: noise}, rng)
			_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
			if err != nil {
				return nil, err
			}
			oracle := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})
			c, err := cluster.PAM(oracle, k)
			if err != nil {
				return nil, err
			}
			clusterARI := eval.AdjustedRandIndex(ds.Truth["rows"], c.Labels)
			tr, err := tree.Fit(ds.Table, ds.Table.ColumnNames(), c.Labels, k,
				tree.Options{MaxDepth: 4, MinLeaf: 8})
			if err != nil {
				return nil, err
			}
			tr.Prune()
			fidelity := tr.Accuracy(ds.Table, c.Labels)
			endARI := eval.AdjustedRandIndex(ds.Truth["rows"], tr.PredictAll(ds.Table))
			res.addRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.1f", noise),
				fmt.Sprintf("%.3f", clusterARI), fmt.Sprintf("%.3f", fidelity),
				fmt.Sprintf("%.3f", endARI), fmt.Sprintf("%d", tr.NumLeaves()))
		}
	}
	res.note("paper: the tree 'only approximates the real partitions detected during the clustering step' — a deliberate interpretability/accuracy trade-off")
	res.note("expectation: fidelity near 1 on separated clusters, dropping as noise grows; end-to-end ARI tracks cluster ARI within the fidelity loss")
	return res, nil
}

// runE1 measures map accuracy against the planted truth as the sampling
// budget shrinks — the paper's claim that "the loss of accuracy is
// minimal" under multi-scale sampling.
func runE1(cfg Config) (*Result, error) {
	res := &Result{ID: "e1", Title: "Sampling: accuracy vs sample size (paper §3)",
		Headers: []string{"sample size", "chosen k", "ARI vs planted", "map build time"}}
	n := cfg.scaled(100000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: 4, Dims: 8, Sep: 8}, rng)
	truth := ds.Truth["rows"]
	for _, s := range []int{250, 500, 1000, 2000, 4000, 8000} {
		if s > n {
			continue
		}
		e, err := newBlobExplorer(ds, cfg.Seed, s)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		m, err := e.SelectTheme(blobTheme(e))
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		pred := regionLabels(m, n)
		ari := eval.AdjustedRandIndex(truth, pred)
		res.addRow(fmt.Sprintf("%d", s), fmt.Sprintf("%d", m.K), fmt.Sprintf("%.3f", ari),
			elapsed.Round(time.Millisecond).String())
	}
	res.note("paper: 'After each zoom, Blaeu only takes a few thousand samples ... the loss of accuracy is minimal'")
	res.note("expectation: ARI flat (near its 8000-sample value) down to ~500 samples, at greatly reduced build time")
	return res, nil
}

// runE2 compares PAM and CLARA as n grows: quality (cost ratio, ARI) and
// runtime, reproducing the rationale for switching to CLARA on large data.
func runE2(cfg Config) (*Result, error) {
	res := &Result{ID: "e2", Title: "CLARA vs PAM (paper §3)",
		Headers: []string{"n", "PAM time", "CLARA time", "cost CLARA/PAM", "PAM ARI", "CLARA ARI"}}
	for _, n := range []int{500, 1000, 2000, 4000} {
		nn := cfg.scaled(n)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: nn, K: 4, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
		if err != nil {
			return nil, err
		}
		oracle := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})

		start := time.Now()
		p, err := cluster.PAM(oracle, 4)
		if err != nil {
			return nil, err
		}
		pamTime := time.Since(start)

		start = time.Now()
		cl, err := cluster.CLARA(oracle, 4, cluster.CLARAOptions{Rand: rng})
		if err != nil {
			return nil, err
		}
		claraTime := time.Since(start)

		res.addRow(fmt.Sprintf("%d", nn),
			pamTime.Round(time.Millisecond).String(),
			claraTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", cl.Cost/p.Cost),
			fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], p.Labels)),
			fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], cl.Labels)))
	}
	// CLARA-only extension where PAM is impractical.
	for _, n := range []int{20000, 50000} {
		nn := cfg.scaled(n)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: nn, K: 4, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
		if err != nil {
			return nil, err
		}
		oracle := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		start := time.Now()
		cl, err := cluster.CLARA(oracle, 4, cluster.CLARAOptions{Rand: rng})
		if err != nil {
			return nil, err
		}
		claraTime := time.Since(start)
		res.addRow(fmt.Sprintf("%d", nn), "—", claraTime.Round(time.Millisecond).String(),
			"—", "—", fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], cl.Labels)))
	}
	res.note("paper: 'when the data is too large, Blaeu creates the maps with CLARA, a sampling-based variant of the PAM algorithm'")
	res.note("expectation: CLARA cost within a few percent of PAM, runtime roughly flat in n while PAM grows quadratically")
	return res, nil
}

// runE3 compares the Monte-Carlo silhouette estimator against the exact
// O(n²) computation.
func runE3(cfg Config) (*Result, error) {
	res := &Result{ID: "e3", Title: "Monte-Carlo silhouette vs exact (paper §3)",
		Headers: []string{"n", "exact", "MC", "abs err", "exact time", "MC time", "speedup"}}
	for _, n := range []int{2000, 5000, 10000} {
		nn := cfg.scaled(n)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: nn, K: 3, Dims: 6, Sep: 5}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
		if err != nil {
			return nil, err
		}
		oracle := cluster.NewLazyOracle(vecs, stats.Euclidean{})
		labels := ds.Truth["rows"]

		start := time.Now()
		exact := cluster.Silhouette(oracle, labels, 3)
		exactTime := time.Since(start)

		start = time.Now()
		mc := cluster.MCSilhouette(oracle, labels, 3, rng)
		mcTime := time.Since(start)

		speedup := float64(exactTime) / math.Max(float64(mcTime), 1)
		res.addRow(fmt.Sprintf("%d", nn), fmt.Sprintf("%.4f", exact), fmt.Sprintf("%.4f", mc),
			fmt.Sprintf("%.4f", math.Abs(exact-mc)),
			exactTime.Round(time.Millisecond).String(), mcTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fx", speedup))
	}
	res.note("paper: 'it computes the silhouette scores in a Monte-Carlo fashion ... and averages the results'")
	res.note("expectation: MC estimate within a few hundredths of exact, with order-of-magnitude speedups growing in n")
	return res, nil
}

// runE4 checks that silhouette-driven model selection recovers the planted
// number of clusters.
func runE4(cfg Config) (*Result, error) {
	res := &Result{ID: "e4", Title: "Auto-k via silhouette (paper §3)",
		Headers: []string{"planted k", "chosen k", "silhouette", "correct"}}
	correct := 0
	kRange := []int{2, 3, 4, 5, 6, 7, 8}
	for _, k := range kRange {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: cfg.scaled(600), K: k, Dims: 6, Sep: 10}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
		if err != nil {
			return nil, err
		}
		oracle := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})
		c, err := cluster.AutoK(oracle, cluster.AutoKOptions{KMin: 2, KMax: 9, Rand: rng})
		if err != nil {
			return nil, err
		}
		ok := c.K == k
		if ok {
			correct++
		}
		res.addRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", c.K),
			fmt.Sprintf("%.3f", c.Silhouette), fmt.Sprintf("%v", ok))
	}
	res.note("paper: 'we generate several partitionings with different numbers of clusters, and keep the one with the best score'")
	res.note("measured: %d/%d planted k recovered exactly", correct, len(kRange))
	return res, nil
}

// runA1 is the MI-vs-correlation ablation: the paper chose mutual
// information because it handles mixed types and non-linear dependencies.
func runA1(cfg Config) (*Result, error) {
	res := &Result{ID: "a1", Title: "Ablation: dependency measure (MI vs Pearson)",
		Headers: []string{"relationship", "NMI weight", "|Pearson| weight"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.scaled(4000)

	xs := make([]float64, n)
	linear := make([]float64, n)
	quad := make([]float64, n)
	sine := make([]float64, n)
	noise := make([]float64, n)
	cats := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()*2 - 1
		linear[i] = 2*xs[i] + rng.NormFloat64()*0.1
		quad[i] = xs[i]*xs[i] + rng.NormFloat64()*0.05
		sine[i] = math.Sin(4*xs[i]) + rng.NormFloat64()*0.1
		noise[i] = rng.NormFloat64()
		switch {
		case xs[i] < -0.3:
			cats[i] = "low"
		case xs[i] < 0.3:
			cats[i] = "mid"
		default:
			cats[i] = "high"
		}
	}
	t := store.NewTable("a1")
	t.MustAddColumn(store.NewFloatColumnFrom("x", xs))
	t.MustAddColumn(store.NewFloatColumnFrom("linear", linear))
	t.MustAddColumn(store.NewFloatColumnFrom("quadratic", quad))
	t.MustAddColumn(store.NewFloatColumnFrom("sine", sine))
	t.MustAddColumn(store.NewFloatColumnFrom("noise", noise))
	t.MustAddColumn(store.NewStringColumnFrom("category", cats))

	g, err := graph.BuildDependencyGraph(t, nil, graph.DependencyOptions{})
	if err != nil {
		return nil, err
	}
	// |Pearson| is the baseline the paper argues against; on the
	// categorical column it sees no numbers (NaN) and so weighs 0.
	floats := func(name string) []float64 {
		c := t.ColumnByName(name)
		v := make([]float64, c.Len())
		for r := range v {
			v[r] = c.Float(r)
		}
		return v
	}
	xi := g.Index("x")
	for _, pair := range []string{"linear", "quadratic", "sine", "noise", "category"} {
		res.addRow("x ↔ "+pair,
			fmt.Sprintf("%.3f", g.Weight(xi, g.Index(pair))),
			fmt.Sprintf("%.3f", math.Abs(stats.Pearson(xs, floats(pair)))))
	}
	res.note("paper: MI was chosen because 'it copes with mixed values and it is sensitive to non-linear relationships'")
	res.note("expectation: both measures catch the linear pair; only NMI catches quadratic, sine and the categorical column; both reject noise")
	return res, nil
}

// runA2 sweeps the description-tree depth: deeper trees describe the
// clustering more faithfully but produce less readable maps.
func runA2(cfg Config) (*Result, error) {
	res := &Result{ID: "a2", Title: "Ablation: description-tree depth vs fidelity",
		Headers: []string{"max depth", "fidelity", "end-to-end ARI", "leaves"}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: cfg.scaled(3000), K: 4, Dims: 6, Sep: 4, Noise: 1.5}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.Options{})
	if err != nil {
		return nil, err
	}
	oracle := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})
	c, err := cluster.PAM(oracle, 4)
	if err != nil {
		return nil, err
	}
	for depth := 1; depth <= 6; depth++ {
		tr, err := tree.Fit(ds.Table, ds.Table.ColumnNames(), c.Labels, 4,
			tree.Options{MaxDepth: depth, MinLeaf: 8})
		if err != nil {
			return nil, err
		}
		tr.Prune()
		res.addRow(fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.3f", tr.Accuracy(ds.Table, c.Labels)),
			fmt.Sprintf("%.3f", eval.AdjustedRandIndex(ds.Truth["rows"], tr.PredictAll(ds.Table))),
			fmt.Sprintf("%d", tr.NumLeaves()))
	}
	res.note("paper: 'The downside of our approach is that it induces a loss of accuracy: the decision tree only approximates the real partitions'")
	res.note("expectation: fidelity rises with depth and saturates; Blaeu's default depth (3) sits near the knee, trading little fidelity for few, readable regions")
	return res, nil
}
