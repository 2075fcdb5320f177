package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store/segment"
)

// tracedMetrics runs the rest of a traced run after its rounds — the
// route probe, the layer probe and the ingest probe — and turns what the
// recorder holds into the per-layer metrics and the ledger.
//
// The route probe is a few traced passes of the explore script (with a
// state read) on the workload's own dataset, so that every route and
// every core stage has samples on every workload, including the ones
// whose own script never builds cold.
func tracedMetrics(cfg *runConfig, res *runResult, s *served, rec *recorder, sc script,
	plain, rounds []roundStat, genS float64, calib []float64, poolBefore, poolAfter segment.PoolStats) error {
	for i := 0; i < routeProbeRuns; i++ {
		exploreRound(s.cold, sc, "", true)
	}
	dataSeed, engineSeed := cfg.wl.seeds(cfg.seed)
	layer, err := layerProbe(rec, s.env.rel, engineSeed, cfg.wl.sampleAt(cfg.scale), layerProbeRuns)
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	rows := cfg.wl.rowsAt(cfg.scale)
	if rows > probeRows {
		rows = probeRows
	}
	readMBs, buildMBs, bytesPerValue, err := ingestProbe(rec, cfg, rows, dataSeed)
	if err != nil {
		return err
	}
	rejected, shed, err := jobsStats(s.cold)
	if err != nil {
		return err
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	put := func(name string, v float64, n int) {
		for _, m := range perLayer {
			if m.name == name {
				res.Metrics[name] = metricValue{v, m.unit, n}
				return
			}
		}
		panic("bench/load: metric " + name + " is not in the per-layer table")
	}
	p50 := func(name string, xs []float64) {
		put(name+"_ms_p50", median(xs), len(xs))
		if len(xs) >= 100 {
			if p, ok := tailPercentile(len(xs)); ok {
				res.Extra = append(res.Extra, fmt.Sprintf("%s_ms_p%.0f %.4f ms n=%d", name, p, percentile(xs, p), len(xs)))
			}
		}
	}

	// server: what the client saw, by route.
	for _, r := range routes {
		p50("server."+r, rec.lat[r])
	}
	put("server.resp_kb_per_click", float64(rec.respBytes)/1e3/float64(rec.clicks), rec.clicks)

	// jobs, session, core: the scheduler's and the trace's split of
	// every build click. Stage timings leave out map-cache hits, which
	// run no stage.
	var edge, queue, run, sessUn, coreUn []float64
	stage := map[string][]float64{}
	var hits, derived, cold int
	var distEvals float64
	for _, b := range rec.builds {
		edge = append(edge, b.edgeMs())
		queue = append(queue, b.queueMs)
		run = append(run, b.runMs)
		sessUn = append(sessUn, b.sessionResidueMs())
		switch b.reuse {
		case "mapHit":
			hits++
			continue
		case "oracleDerived":
			derived++
		default:
			cold++
		}
		for _, sp := range b.trace.Spans {
			stage[sp.Name] = append(stage[sp.Name], sp.DurationMs)
		}
		coreUn = append(coreUn, b.coreResidueMs())
		distEvals += float64(b.trace.Counters["oracleDistEvals"])
	}
	built := derived + cold
	p50("server.edge", edge)
	p50("jobs.queue_wait", queue)
	p50("jobs.run", run)
	put("jobs.rejected", rejected, len(rec.builds))
	put("jobs.shed", shed, len(rec.builds))
	p50("session.unattributed", sessUn)
	for _, st := range []string{"sample", "prep", "oracle", "cluster", "region"} {
		p50("core."+st, stage[st])
	}
	p50("core.unattributed", coreUn)
	p50("core.open", layer["core.open"])
	put("core.map_hit_ratio", ratio(float64(hits), float64(len(rec.builds))), len(rec.builds))
	put("core.artifact_derived_ratio", ratio(float64(derived), float64(built)), built)
	put("core.cold_builds", float64(cold), len(rec.builds))
	put("cluster.dist_evals_per_build", ratio(distEvals, float64(built)), built)

	// The layers below core, from the layer probe.
	for _, stem := range []string{"store.scan_gather", "store.highlight_stats", "graph.dependency", "prep.fit_transform",
		"cluster.build_oracle", "cluster.autok", "cluster.silhouette_per_cluster", "tree.fit", "tree.accuracy", "render.svg"} {
		p50(stem, layer[stem])
	}
	put("store.partition_ms_per_mrow", median(layer["store.partition_per_mrow"]), len(layer["store.partition_per_mrow"]))
	put("store.filter_ms_per_mrow", median(layer["store.filter_per_mrow"]), len(layer["store.filter_per_mrow"]))
	put("store.likely_key_ms", median(layer["store.likely_key"]), len(layer["store.likely_key"]))
	put("store.read_csv_mb_per_s", readMBs, 1)
	put("store.build_segment_mb_per_s", buildMBs, 1)

	// The clock metrics, from the untraced rounds of this run, as the
	// clock read them.
	sessionP50, rate, cpu, pWalls := sessionTimes(plain)
	put("session_s_p50", sessionP50, len(plain))
	put("clicks_per_s", rate, len(plain))
	put("cpu_ms_per_click", cpu, len(plain))

	// segment: pool counters over the traced rounds (all zero in memory).
	tClicks, tGCs, tPauseMs := 0, 0.0, 0.0
	for _, r := range rounds {
		tClicks += r.clicks
		tGCs += float64(r.gcs)
		tPauseMs += float64(r.pauseNs) / 1e6
	}
	_, _, _, tWalls := sessionTimes(rounds)
	reads := float64(poolAfter.Hits+poolAfter.Misses) - float64(poolBefore.Hits+poolBefore.Misses)
	put("segment.pool_hit_ratio", ratio(float64(poolAfter.Hits-poolBefore.Hits), reads), int(reads))
	put("segment.pages_read_per_click", reads/float64(tClicks), tClicks)
	put("segment.evictions_per_click", float64(poolAfter.Evictions-poolBefore.Evictions)/float64(tClicks), tClicks)
	put("segment.file_bytes_per_value", bytesPerValue, 1)

	put("runtime.gc_cycles_per_click", tGCs/float64(tClicks), tClicks)
	put("runtime.gc_pause_ms_per_click", tPauseMs/float64(tClicks), tClicks)
	put("bench.gen_s", genS, 1)
	put("bench.trace_overhead_frac", median(tWalls)/median(pWalls)-1, len(tWalls))
	put("bench.calib_ms_p50", median(calib), len(calib))

	res.Extra = append(res.Extra, ledger(rec.builds, layer)...)
	if cfg.traceOut != "" {
		path, err := writeSpans(cfg, rec.spans)
		if err != nil {
			return err
		}
		res.Extra = append(res.Extra, fmt.Sprintf("spans %d written to %s", len(rec.spans), path))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger prints where the time of a build click goes, as shares of the
// mean client-observed latency of the builds that ran the pipeline
// (map-cache hits excluded). The identities it rests on are exact per
// click: client = edge + queue wait + run, run = session residue +
// trace total, trace total = Σ stages + core residue. The region stage
// is split by the layer probe's timings of tree.Fit/Accuracy,
// SilhouettePerCluster and PartitionRows on the full table, scaled to
// the region span of the select clicks (the builds over the full
// table); what the probes do not cover is printed as region residue,
// not folded into a layer.
func ledger(builds []buildRec, layer samples) []string {
	var client, edge, queue, sessUn, coreUn float64
	stage := map[string]float64{}
	var selectRegion []float64
	n := 0
	for _, b := range builds {
		if b.reuse == "mapHit" {
			continue
		}
		n++
		client += b.clientMs
		edge += b.edgeMs()
		queue += b.queueMs
		sessUn += b.sessionResidueMs()
		coreUn += b.coreResidueMs()
		for _, sp := range b.trace.Spans {
			stage[sp.Name] += sp.DurationMs
			if sp.Name == "region" && b.route == "select" {
				selectRegion = append(selectRegion, sp.DurationMs)
			}
		}
	}
	if n == 0 || client == 0 {
		return []string{"ledger: no pipeline builds traced"}
	}
	treeMs := median(layer["tree.fit"]) + median(layer["tree.accuracy"])
	silMs := median(layer["cluster.silhouette_per_cluster"])
	partMs := median(layer["store.partition"])
	regionMs := median(selectRegion)
	treeF, silF, partF := ratio(treeMs, regionMs), ratio(silMs, regionMs), ratio(partMs, regionMs)
	if total := treeF + silF + partF; total > 1 {
		treeF, silF, partF = treeF/total, silF/total, partF/total
	}
	region := stage["region"]
	shares := []struct {
		name string
		ms   float64
	}{
		{"store+segment (core.sample + PartitionRows share of core.region)", stage["sample"] + region*partF},
		{"prep (core.prep)", stage["prep"]},
		{"cluster (core.oracle + core.cluster + silhouette share of core.region)", stage["oracle"] + stage["cluster"] + region*silF},
		{"tree (Fit + Accuracy share of core.region)", region * treeF},
		{"residue: core.region not covered by the probes", region * (1 - treeF - silF - partF)},
		{"residue: core.unattributed (trace total - stages)", coreUn},
		{"residue: session.unattributed (runMs - trace total)", sessUn},
		{"jobs.queue_wait", queue},
		{"residue: server.edge (client - queue wait - run)", edge},
	}
	out := []string{fmt.Sprintf("ledger: %d pipeline builds, mean client latency %.2f ms; core.region of a select %.2f ms vs probes %.2f ms",
		n, client/float64(n), regionMs, treeMs+silMs+partMs)}
	for _, sh := range shares {
		out = append(out, fmt.Sprintf("ledger: %5.1f%%  %s", 100*sh.ms/client, sh.name))
	}
	return out
}

// writeSpans writes every span of the run as one JSON file.
func writeSpans(cfg *runConfig, spans []span) (string, error) {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.spans.json", cfg.wl.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Written  time.Time `json:"written"`
		Spans    []span    `json:"spans"`
	}{cfg.wl.name, cfg.seed, time.Now().UTC(), spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
