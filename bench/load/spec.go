package main

// The benchmark's contract with BENCHMARK.json: four workloads, three
// end-to-end metrics, and the per-layer metrics of the traced run.
// smoke_test.go checks this file against BENCHMARK.json, whose schema
// has no room for the layer → end-to-end predictions kept here.

// workload names.
const (
	wlExploreMem  = "explore_mem"
	wlExploreSeg  = "explore_seg"
	wlRevisitWarm = "revisit_warm"
	wlContendMix  = "contend_mix"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	why  string
	// seg selects the out-of-core workload: the planted table, converted
	// with store.BuildSegment and opened under a page pool a sixth of
	// its size. Otherwise the table is datagen.LOFAR, loaded into memory
	// with store.ReadCSVFile.
	seg bool
	// sample is core.Options.SampleSize. Above core's PAMThreshold
	// (1024) a build clusters through CLARA with Monte-Carlo
	// silhouettes; below it, it runs exact PAM.
	sample int
	// rows is the table size at -scale 1.
	rows int
}

// The in-memory workloads share one table, so that what differs between
// them is the traffic, not the data.
const (
	lofarRows   = 100_000
	lofarSample = 1100
)

var workloads = []workloadSpec{
	{
		name: wlExploreMem,
		why:  "cold 12-click sessions on the 40-column in-memory LOFAR table: sample-bound builds, so tree, cluster and prep do most of the work",
		rows: lofarRows, sample: lofarSample,
	},
	{
		name: wlExploreSeg,
		why:  "the same 12 clicks over a 1.6M-row segment six times its page pool: row-proportional store and segment work is the largest share",
		seg:  true, rows: 1_600_000, sample: 300,
	},
	{
		name: wlRevisitWarm,
		why:  "400-click rounds on one primed session where every build is a map-cache hit: server JSON, session, cache tiers, gathers and render only",
		rows: lofarRows, sample: lofarSample,
	},
	{
		name: wlContendMix,
		why:  "two tenants at once, cold builds against a warm revisit loop: the only workload where jobs dispatch and cross-session interference matter",
		rows: lofarRows, sample: lofarSample,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// lofarSeed is the seed of the LOFAR table and of the engine that maps
// it: blaeud's default -seed. Both are fixed because LOFAR's maps are
// not stable across them: at N=100 000 the engine seeds 1..10 over one
// table find 2, 3 or 8 themes and a first theme of 5 to 33 columns, and
// the select click that maps it takes 0.16 to 1.4 s. A run's seed then
// chose the work, not the workload. With both fixed, the seed of an
// in-memory run varies what the analyst clicks: the columns highlighted
// and filtered, and the filter threshold.
const lofarSeed = 1

// seeds returns the seed a run's table is generated from and the seed
// its engine runs with. The segment workload takes both from the run's
// seed: its planted table maps the same way for every seed.
func (w *workloadSpec) seeds(run int64) (data, engine int64) {
	if w.seg {
		return run, run
	}
	return lofarSeed, lofarSeed
}

// rowsAt is the table size at the given scale.
func (w *workloadSpec) rowsAt(scale float64) int { return int(float64(w.rows) * scale) }

// sampleAt is the sampling budget at the given scale: toy scales shrink
// it with the table (never below 200) so that the smoke test's builds
// stay in the milliseconds.
func (w *workloadSpec) sampleAt(scale float64) int {
	if scale >= 1 {
		return w.sample
	}
	if s := int(float64(w.sample) * scale); s > 200 {
		return s
	}
	return 200
}

// segPoolDivisor sizes the page pool of the segment workload: the pool
// holds a sixth of the data, the ratio of 32 MiB to 190 MB.
const segPoolDivisor = 6

// metricSpec describes one reported metric.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
	// moves names, for a per-layer metric, the session metric and
	// workload it is predicted to move, as "metric@workload" (empty only
	// for the session clock metrics themselves and the benchmark's own
	// costs).
	moves string
}

// The end-to-end metrics are the session aggregates that repeat on the
// reference box: over ten seeds heap_live_mb spreads 0.05% and less, and
// alloc_mb_per_click 1.4% at most (contend_mix, whose share of cheap
// warm clicks moves with the machine; explore_seg, whose table the seed
// draws, 1.2%). The issue hoped for 2% on allocation; the contract wants
// a spread under a third of its bound, hence 5%. setup_s is there because
// the contract wants it, at the contract's largest bound and at
// reference machine speed (see calib.go).
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_click", unit: "MB", better: "lower", bound: 0.05},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.05},
}

// sessionClock are the issue's three timing metrics: what a session
// costs on the clock. The issue caps a bound at 10% and has a metric
// that cannot hold its bound demoted; these cannot. The box is a shared
// VM whose speed wanders by a factor of two over tens of minutes: over
// ten same-code runs the clock's session_s_p50 spread 8–28%, and a
// calibration kernel brought that to 5–18%, not to 10. So they are
// entries of the per-layer list: the traced run reports them, every run
// prints them, nothing gates them, and they stay what the layer metrics
// below are predicted to move. Comparing two commits on them takes
// interleaved pairs (choosing-metrics §8), which cancel the drift.
var sessionClock = []metricSpec{
	{name: "session_s_p50", unit: "s", better: "lower"},
	{name: "clicks_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_click", unit: "ms", better: "lower"},
}

// routes are the client-observed click classes of the server layer.
// A zoom or project served by the map cache is a revisit.
var routes = []string{"open", "select", "zoom", "project", "filter", "highlight", "revisit", "rollback", "svg", "state"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	out := append([]metricSpec(nil), sessionClock...)
	ms := func(name, moves string) {
		out = append(out, metricSpec{name: name, unit: "ms", better: "lower", moves: moves})
	}
	add := func(name, unit, better, moves string) {
		out = append(out, metricSpec{name: name, unit: unit, better: better, moves: moves})
	}
	for _, r := range routes {
		moves := "clicks_per_s@" + wlRevisitWarm
		switch r {
		case "open", "select", "zoom", "project":
			moves = "session_s_p50@" + wlExploreMem
		case "filter":
			moves = "session_s_p50@" + wlExploreSeg
		}
		ms("server."+r+"_ms_p50", moves)
	}
	ms("server.edge_ms_p50", "clicks_per_s@"+wlRevisitWarm)
	add("server.resp_kb_per_click", "KB", "lower", "clicks_per_s@"+wlRevisitWarm)

	ms("jobs.queue_wait_ms_p50", "session_s_p50@"+wlContendMix)
	ms("jobs.run_ms_p50", "session_s_p50@"+wlContendMix)
	add("jobs.rejected", "count", "lower", "session_s_p50@"+wlContendMix)
	add("jobs.shed", "count", "lower", "session_s_p50@"+wlContendMix)
	ms("session.unattributed_ms_p50", "session_s_p50@"+wlContendMix)

	ms("core.sample_ms_p50", "session_s_p50@"+wlExploreSeg)
	ms("core.prep_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("core.oracle_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("core.cluster_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("core.region_ms_p50", "session_s_p50@"+wlExploreSeg)
	ms("core.unattributed_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("core.open_ms_p50", "session_s_p50@"+wlExploreMem)
	add("core.map_hit_ratio", "ratio", "higher", "clicks_per_s@"+wlRevisitWarm)
	add("core.artifact_derived_ratio", "ratio", "higher", "session_s_p50@"+wlExploreMem)
	add("core.cold_builds", "count", "lower", "session_s_p50@"+wlExploreMem)

	ms("store.scan_gather_ms_p50", "session_s_p50@"+wlExploreSeg)
	add("store.partition_ms_per_mrow", "ms", "lower", "session_s_p50@"+wlExploreSeg)
	add("store.filter_ms_per_mrow", "ms", "lower", "session_s_p50@"+wlExploreSeg)
	ms("store.highlight_stats_ms_p50", "clicks_per_s@"+wlRevisitWarm)
	ms("store.likely_key_ms", "session_s_p50@"+wlExploreSeg)
	add("store.read_csv_mb_per_s", "MB/s", "higher", "setup_s@"+wlExploreMem)
	add("store.build_segment_mb_per_s", "MB/s", "higher", "setup_s@"+wlExploreSeg)

	add("segment.pool_hit_ratio", "ratio", "higher", "session_s_p50@"+wlExploreSeg)
	add("segment.pages_read_per_click", "count", "lower", "cpu_ms_per_click@"+wlExploreSeg)
	add("segment.evictions_per_click", "count", "lower", "cpu_ms_per_click@"+wlExploreSeg)
	add("segment.file_bytes_per_value", "B", "lower", "setup_s@"+wlExploreSeg)

	ms("graph.dependency_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("prep.fit_transform_ms_p50", "session_s_p50@"+wlExploreMem)

	ms("cluster.build_oracle_ms_p50", "session_s_p50@"+wlExploreSeg)
	ms("cluster.autok_ms_p50", "session_s_p50@"+wlExploreSeg)
	ms("cluster.silhouette_per_cluster_ms_p50", "session_s_p50@"+wlExploreMem)
	add("cluster.dist_evals_per_build", "count", "lower", "session_s_p50@"+wlExploreMem)

	ms("tree.fit_ms_p50", "cpu_ms_per_click@"+wlExploreMem)
	ms("tree.accuracy_ms_p50", "session_s_p50@"+wlExploreMem)
	ms("render.svg_ms_p50", "clicks_per_s@"+wlRevisitWarm)

	add("runtime.gc_cycles_per_click", "count", "lower", "session_s_p50@"+wlExploreSeg)
	add("runtime.gc_pause_ms_per_click", "ms", "lower", "session_s_p50@"+wlExploreSeg)

	// The benchmark's own costs. Input generation is outside setup_s and
	// every timed window, so it moves no session metric.
	add("bench.gen_s", "s", "lower", "")
	add("bench.trace_overhead_frac", "ratio", "lower", "session_s_p50@"+wlRevisitWarm)
	// The machine's speed at the start of the run (see calib.go): when
	// this moved, every time of the traced run moved with it.
	add("bench.calib_ms_p50", "ms", "lower", "")
	return out
}
