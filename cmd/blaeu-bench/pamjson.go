package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/prep"
	"repro/internal/stats"
)

// pamBenchEntry is one (size, oracle, seeding) cell of the PAM perf
// matrix recorded in BENCH_pam.json.
type pamBenchEntry struct {
	N         int     `json:"n"`
	K         int     `json:"k"`
	Oracle    string  `json:"oracle"`
	Seeding   string  `json:"seeding"`
	SeedMS    float64 `json:"seedMs"`
	TotalMS   float64 `json:"totalMs"`
	CostRatio float64 `json:"costRatio"` // true cost vs matrix+BUILD baseline
}

// schedBenchEntry is one scheduler-overload measurement: the p50
// submit-to-apply latency of completed jobs when the job queue is
// saturated, with and without deadline-based shedding.
type schedBenchEntry struct {
	Shedding   bool    `json:"shedding"`
	DeadlineMS float64 `json:"deadlineMs,omitempty"`
	Workers    int     `json:"workers"`
	Submitted  int     `json:"submitted"`
	Completed  int     `json:"completed"`
	Shed       int     `json:"shed"`
	P50MS      float64 `json:"p50Ms"`
}

// derivedBenchEntry is one cold-vs-derived oracle measurement: the time
// to build a distance oracle over a subset of an already-built parent
// from scratch versus deriving it through the parent's Subset API (the
// BenchmarkZoomColdDerived scenario, isolated to the oracle stage). The
// cost ratio is PAM-over-derived costed on the true metric against
// PAM-over-fresh, pinning the fidelity side of the trade.
type derivedBenchEntry struct {
	N             int     `json:"n"`      // parent sample size
	Subset        int     `json:"subset"` // derived subset size
	Oracle        string  `json:"oracle"`
	ColdOracleMS  float64 `json:"coldOracleMs"`
	DerivedMS     float64 `json:"derivedMs"`
	Speedup       float64 `json:"speedup"`
	TrueCostRatio float64 `json:"trueCostRatio"`
}

// pamBenchFile is the schema of BENCH_pam.json — the perf trajectory
// file regenerated by `make bench-pam`, which also snapshots it to
// bench_history/<shorthash>.json so trajectories are graphable across
// commits.
type pamBenchFile struct {
	GeneratedAt string          `json:"generatedAt"`
	GoVersion   string          `json:"goVersion"`
	NumCPU      int             `json:"numCpu"`
	Commit      string          `json:"commit,omitempty"`
	Seed        int64           `json:"seed"`
	Entries     []pamBenchEntry `json:"entries"`
	// Scheduler tracks the job scheduler under overload (the
	// BenchmarkSchedulerOverload shape), so the backpressure latency
	// trade-off is part of the recorded trajectory too.
	Scheduler []schedBenchEntry `json:"scheduler,omitempty"`
	// ZoomDerived tracks the artifact tier's oracle derivation: fresh
	// subset-oracle build time vs. derivation from a cached parent.
	ZoomDerived []derivedBenchEntry `json:"zoomDerived,omitempty"`
	// Store tracks the out-of-core storage engine: segment conversion,
	// cold sampling and the compiled filter (regenerated by `make
	// bench-store`).
	Store []storeBenchEntry `json:"store,omitempty"`
	// Obs tracks the telemetry plane's instrumentation overhead: cold
	// build time with the per-build trace and metric recording on vs.
	// off (regenerated by `make bench-obs`).
	Obs []obsBenchEntry `json:"obs,omitempty"`
	// Scan tracks the streaming batch-scan layer: the filtered
	// sequential vs parallel page-range scan (regenerated by `make
	// bench-scan`).
	Scan []scanBenchEntry `json:"scan,omitempty"`
}

// gitShortHash returns the working tree's short commit hash, or "" when
// git is unavailable (the field is best-effort provenance).
func gitShortHash() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writePAMBench runs the PAM perf matrix (oracle strategies × seeding
// schemes on planted blobs) and writes it to path as JSON.
func writePAMBench(path string, seed int64, scale float64) error {
	var out pamBenchFile
	if prev, err := os.ReadFile(path); err == nil {
		// Keep sections regenerated by other targets (e.g. the store
		// section from `make bench-store`); everything this run
		// recomputes is overwritten below.
		_ = json.Unmarshal(prev, &out)
	}
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	out.GoVersion = runtime.Version()
	out.NumCPU = runtime.NumCPU()
	out.Commit = gitShortHash()
	out.Seed = seed
	out.Entries = nil
	for _, sz := range []struct{ n, k int }{{2000, 8}, {5000, 8}} {
		n := int(float64(sz.n) * scale)
		if n < 100 {
			n = 100
		}
		rng := rand.New(rand.NewSource(seed + int64(sz.n)))
		ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: sz.k, Dims: 6, Sep: 6}, rng)
		_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
		if err != nil {
			return err
		}
		matrix := cluster.ComputeDistMatrix(vecs, stats.Euclidean{})
		base, err := cluster.FasterPAM(matrix, sz.k)
		if err != nil {
			return err
		}

		oracles := []struct {
			name   string
			oracle cluster.Oracle
		}{
			{"matrix", matrix},
			{"lazy", cluster.NewLazyOracle(vecs, stats.Euclidean{})},
			{"knn", cluster.NewKNNOracle(vecs, stats.Euclidean{}, cluster.KNNOracleOptions{})},
		}
		seedings := []cluster.Seeding{cluster.SeedingBUILD, cluster.SeedingKMeansPP, cluster.SeedingLAB}
		for _, o := range oracles {
			for _, s := range seedings {
				seedRng := rand.New(rand.NewSource(seed))
				start := time.Now()
				if _, err := cluster.SeedMedoids(o.oracle, sz.k, s, seedRng); err != nil {
					return err
				}
				seedTime := time.Since(start)
				start = time.Now()
				c, err := cluster.PAMRun(o.oracle, sz.k, cluster.PAMOptions{
					Seeding: s, Rand: rand.New(rand.NewSource(seed)),
				})
				if err != nil {
					return err
				}
				total := time.Since(start)
				_, trueCost := cluster.AssignToMedoids(matrix, c.Medoids)
				out.Entries = append(out.Entries, pamBenchEntry{
					N: n, K: sz.k, Oracle: o.name, Seeding: s.String(),
					SeedMS:    float64(seedTime.Microseconds()) / 1e3,
					TotalMS:   float64(total.Microseconds()) / 1e3,
					CostRatio: trueCost / base.Cost,
				})
			}
		}
	}
	out.Scheduler = schedulerOverload()
	zd, err := zoomDerived(seed, scale)
	if err != nil {
		return err
	}
	out.ZoomDerived = zd

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Printf("wrote %d entries (+%d scheduler) to %s\n", len(out.Entries), len(out.Scheduler), path)
	return nil
}

// zoomDerived records the cold-vs-derived oracle measurement behind the
// staged-pipeline PR: a parent selection's oracle is built once, then a
// half-sized subset's oracle is (a) rebuilt from scratch and (b) derived
// from the parent. The lazy strategy is omitted — its construction is
// O(1) either way (cold and derived builds both defer all distance
// work), so there is nothing to measure at this stage.
func zoomDerived(seed int64, scale float64) ([]derivedBenchEntry, error) {
	n := int(4000 * scale)
	if n < 200 {
		n = 200
	}
	rng := rand.New(rand.NewSource(seed + 77))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: n, K: 4, Dims: 8, Sep: 6}, rng)
	_, vecs, err := prep.FitTransform(ds.Table, nil, prep.NewOptions())
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, len(vecs)/2)
	sub := make([][]float64, 0, len(vecs)/2)
	for i := 0; i < len(vecs); i += 2 {
		idx = append(idx, i)
		sub = append(sub, vecs[i])
	}
	exact := cluster.ComputeDistMatrix(sub, stats.Euclidean{})
	base, err := cluster.FasterPAM(exact, 4)
	if err != nil {
		return nil, err
	}

	var out []derivedBenchEntry
	for _, o := range []struct {
		name    string
		parent  cluster.Oracle
		buildMS func() float64 // fresh oracle over the subset, timed
	}{
		{
			"matrix",
			cluster.ComputeDistMatrix(vecs, stats.Euclidean{}),
			func() float64 {
				start := time.Now()
				cluster.ComputeDistMatrix(sub, stats.Euclidean{})
				return float64(time.Since(start).Microseconds()) / 1e3
			},
		},
		{
			"knn",
			cluster.NewKNNOracle(vecs, stats.Euclidean{}, cluster.KNNOracleOptions{}),
			func() float64 {
				start := time.Now()
				cluster.NewKNNOracle(sub, stats.Euclidean{}, cluster.KNNOracleOptions{})
				return float64(time.Since(start).Microseconds()) / 1e3
			},
		},
	} {
		coldMS := o.buildMS()
		start := time.Now()
		derived := o.parent.Subset(idx)
		derivedMS := float64(time.Since(start).Microseconds()) / 1e3
		c, err := cluster.FasterPAM(derived, 4)
		if err != nil {
			return nil, err
		}
		_, trueCost := cluster.AssignToMedoids(exact, c.Medoids)
		speedup := math.Inf(1)
		if derivedMS > 0 {
			speedup = coldMS / derivedMS
		}
		out = append(out, derivedBenchEntry{
			N: len(vecs), Subset: len(idx), Oracle: o.name,
			ColdOracleMS: coldMS, DerivedMS: derivedMS,
			Speedup:       speedup,
			TrueCostRatio: trueCost / base.Cost,
		})
	}
	return out, nil
}

// schedulerOverload records the shared scheduler-overload episode
// (jobs.RunOverloadEpisode, same shape as BenchmarkSchedulerOverload) —
// once letting the queue build up, once shedding queued jobs whose
// 10 ms deadline lapsed. The gap between the two p50s is the latency
// the backpressure layer buys under overload.
func schedulerOverload() []schedBenchEntry {
	var out []schedBenchEntry
	for _, deadline := range []time.Duration{0, 10 * time.Millisecond} {
		cfg := jobs.DefaultOverloadConfig(deadline)
		res := jobs.RunOverloadEpisode(context.Background(), cfg)
		e := schedBenchEntry{
			Shedding:   deadline > 0,
			DeadlineMS: float64(deadline.Microseconds()) / 1e3,
			Workers:    cfg.Workers,
			Submitted:  res.Submitted,
			Completed:  res.Completed,
			Shed:       res.Shed,
			P50MS:      float64(res.P50.Microseconds()) / 1e3,
		}
		out = append(out, e)
	}
	return out
}
