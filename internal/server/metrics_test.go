package server

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// metricsTestServer wires the full telemetry plane the way blaeud does:
// a registry-backed manager and a segment dataset whose buffer pool
// reports into the same registry, so /metrics carries scheduler, cache,
// build and pagepool series at once.
func metricsTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rng)

	dir := t.TempDir()
	csvPath := filepath.Join(dir, "blobs.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteCSV(f, ds.Table); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "blobs.seg")
	if _, err := store.BuildSegment(csvPath, segPath, &store.SegmentBuildOptions{RowsPerPage: 64}); err != nil {
		t.Fatal(err)
	}

	tel := &obs.Telemetry{Registry: obs.NewRegistry()}
	pool := segment.NewPoolObs(64*1024, tel.Registry)
	seg, err := store.OpenSegmentTableWith(segPath, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	seg.SetName("seg")

	m := session.NewManagerObs(jobs.Config{}, tel)
	srv := NewWith(map[string]store.Relation{"seg": seg},
		core.Options{Seed: 1, SampleSize: 400}, m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func getBody(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, res.StatusCode)
	}
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), res.Header
}

// parsePromText validates the Prometheus text exposition format line by
// line and returns the parsed series (full "name{labels}" key → value).
// It fails the test on malformed lines, samples without a # TYPE, and
// duplicate series — the same checks the CI metrics-smoke step runs.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	typed := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || parts[2] == "" || parts[3] == "" {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown metric type %q", lineNo, parts[3])
				}
				typed[parts[2]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognised comment %q", lineNo, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("line %d: malformed sample %q", lineNo, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q in %q", lineNo, valStr, line)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", lineNo, key)
		}
		series[key] = val

		name := key
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unbalanced label braces in %q", lineNo, key)
			}
			name = name[:j]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok {
				base = cut
				break
			}
		}
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", lineNo, key)
		}
	}
	return series
}

// hasSeries reports whether any series key starts with the prefix.
func hasSeries(series map[string]float64, prefix string) bool {
	for k := range series {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// TestMetricsScrape drives a build and asserts /metrics is a valid,
// duplicate-free Prometheus exposition carrying the scheduler, the
// reuse cache, the buffer pool, and the build-stage histograms.
func TestMetricsScrape(t *testing.T) {
	ts := metricsTestServer(t)
	id, _ := openSession(t, ts, "seg")
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select", map[string]int{"theme": 0}, http.StatusOK)

	body, hdr := getBody(t, ts.URL+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	series := parsePromText(t, body)

	for _, want := range []string{
		// scheduler
		`blaeu_jobs_total{outcome="done"}`,
		"blaeu_jobs_queued",
		"blaeu_jobs_running",
		"blaeu_jobs_workers",
		"blaeu_job_queue_wait_seconds_count",
		"blaeu_job_run_seconds_count",
		// build pipeline
		`blaeu_build_stage_seconds_bucket{stage="cluster"`,
		`blaeu_build_stage_seconds_bucket{stage="region"`,
		`blaeu_build_seconds_bucket{action="select"`,
		// reuse cache
		`blaeu_cache_hits{tier="map"}`,
		`blaeu_cache_misses{tier="map"}`,
		// buffer pool
		"blaeu_pagepool_hits_total",
		"blaeu_pagepool_misses_total",
		"blaeu_pagepool_used_bytes",
		"blaeu_pagepool_budget_bytes",
	} {
		if !hasSeries(series, want) {
			t.Errorf("missing series %s in /metrics", want)
		}
	}
	if n := series[`blaeu_jobs_total{outcome="done"}`]; n < 1 {
		t.Errorf(`blaeu_jobs_total{outcome="done"} = %v, want >= 1`, n)
	}
	if n := series["blaeu_job_run_seconds_count"]; n < 1 {
		t.Errorf("blaeu_job_run_seconds_count = %v, want >= 1", n)
	}
	if series["blaeu_pagepool_budget_bytes"] != 64*1024 {
		t.Errorf("blaeu_pagepool_budget_bytes = %v, want %d", series["blaeu_pagepool_budget_bytes"], 64*1024)
	}
}

// TestMetricsJSONSnapshot checks the ?format=json view decodes and
// carries the same families.
func TestMetricsJSONSnapshot(t *testing.T) {
	ts := metricsTestServer(t)
	openSession(t, ts, "seg")
	snap := doJSON(t, "GET", ts.URL+"/metrics?format=json", nil, http.StatusOK)
	metrics, _ := snap["metrics"].([]any)
	if len(metrics) == 0 {
		t.Fatalf("snapshot has no metrics: %v", snap)
	}
	names := map[string]bool{}
	for _, m := range metrics {
		fam := m.(map[string]any)
		name, _ := fam["name"].(string)
		names[name] = true
		switch fam["type"] {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("family %s has bad type %v", name, fam["type"])
		}
	}
	for _, want := range []string{"blaeu_jobs_total", "blaeu_cache_hits", "blaeu_pagepool_hits_total"} {
		if !names[want] {
			t.Errorf("snapshot missing family %s", want)
		}
	}
}

// TestObservabilityEndpointsByteStable asserts the three observability
// surfaces render byte-identically on consecutive reads of unchanged
// state — the regression guard for key-sorted output.
func TestObservabilityEndpointsByteStable(t *testing.T) {
	ts := metricsTestServer(t)
	id, _ := openSession(t, ts, "seg")
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select", map[string]int{"theme": 0}, http.StatusOK)

	for _, path := range []string{"/api/jobs/stats", "/api/cache/stats", "/metrics", "/metrics?format=json"} {
		a, _ := getBody(t, ts.URL+path)
		b, _ := getBody(t, ts.URL+path)
		if a != b {
			t.Errorf("GET %s not byte-stable across consecutive reads:\n--- first\n%s\n--- second\n%s", path, a, b)
		}
	}
}

// waitJob polls the job endpoint until the job reaches a terminal
// status and returns its final info.
func waitJob(t *testing.T, base, jobID string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info := doJSON(t, "GET", base+"/jobs/"+jobID, nil, http.StatusOK)
		switch info["status"] {
		case string(jobs.StatusDone):
			return info
		case string(jobs.StatusFailed), string(jobs.StatusCancelled), string(jobs.StatusShed):
			t.Fatalf("job %s ended %v: %v", jobID, info["status"], info["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", jobID)
	return nil
}

// TestJobTraceRoundTrip submits an async build and round-trips its
// trace: stage spans present, durations consistent with the total, the
// reuse tier named, and the oracle distance-evaluation counter populated. It
// also covers the queueWaitMs/runMs fields derived on job info.
func TestJobTraceRoundTrip(t *testing.T) {
	ts := metricsTestServer(t)
	id, _ := openSession(t, ts, "seg")
	base := ts.URL + "/api/sessions/" + id

	sub := doJSON(t, "POST", base+"/jobs",
		map[string]any{"action": "select", "theme": 1}, http.StatusAccepted)
	jobID, _ := sub["id"].(string)
	if jobID == "" {
		t.Fatalf("no job id in submit response: %v", sub)
	}
	info := waitJob(t, base, jobID)

	// Satellite: queue-wait and run durations derived on the info shape.
	if runMs, ok := info["runMs"].(float64); !ok || runMs <= 0 {
		t.Errorf("terminal job info runMs = %v, want > 0", info["runMs"])
	}
	if qw, ok := info["queueWaitMs"].(float64); ok && qw < 0 {
		t.Errorf("queueWaitMs = %v, want >= 0", qw)
	}

	tr := doJSON(t, "GET", base+"/jobs/"+jobID+"/trace", nil, http.StatusOK)
	total, _ := tr["totalMs"].(float64)
	if total <= 0 {
		t.Fatalf("trace totalMs = %v, want > 0", tr["totalMs"])
	}
	spans, _ := tr["spans"].([]any)
	if len(spans) == 0 {
		t.Fatal("trace has no spans")
	}
	seen := map[string]bool{}
	var sum float64
	for _, s := range spans {
		sp := s.(map[string]any)
		name, _ := sp["name"].(string)
		dur, _ := sp["durationMs"].(float64)
		if dur < 0 {
			t.Errorf("span %s durationMs = %v, want >= 0", name, dur)
		}
		seen[name] = true
		sum += dur
	}
	for _, want := range []string{"sample", "prep", "oracle", "cluster", "region"} {
		if !seen[want] {
			t.Errorf("trace missing stage span %q (spans: %v)", want, spans)
		}
	}
	// The stages run sequentially inside the build, so their durations
	// must not exceed the end-to-end total (small tolerance for float
	// rounding in the millisecond conversion).
	if sum > total*1.05+1 {
		t.Errorf("span durations sum to %.3fms > totalMs %.3fms", sum, total)
	}

	attrs, _ := tr["attrs"].(map[string]any)
	switch attrs["reuse"] {
	case string(core.ReuseMapHit), string(core.ReuseCold):
	default:
		t.Errorf("trace attrs.reuse = %v, want a reuse tier", attrs["reuse"])
	}
	counters, _ := tr["counters"].(map[string]any)
	if attrs["reuse"] == string(core.ReuseCold) {
		if n, _ := counters["oracleDistEvals"].(float64); n <= 0 {
			t.Errorf("cold build counters.oracleDistEvals = %v, want > 0", counters["oracleDistEvals"])
		}
	}

	// A still-queued job has no trace: submitting against a session that
	// does not exist 404s through the same handler path.
	res, err := http.Get(base + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: status %d, want 404", res.StatusCode)
	}
}
