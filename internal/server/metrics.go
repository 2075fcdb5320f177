package server

// The telemetry API — the HTTP face of internal/obs:
//
//	GET /metrics                                   Prometheus text format (?format=json for the snapshot)
//	GET /api/sessions/{id}/jobs/{jobID}/trace      per-build stage trace
//
// /metrics serves the manager's registry: scheduler counters and
// histograms (internal/jobs), build-stage histograms (internal/session),
// buffer-pool counters (internal/store/segment when blaeud wires a
// registry-backed pool), and the reuse-cache gauges registered below —
// so /api/jobs/stats and /api/cache/stats are views over the same
// source of truth a scraper reads.

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.manager.Telemetry().Reg()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// handleJobTrace serves the per-build stage trace: span durations for
// sample/prep/oracle/cluster/region, distance-evaluation and
// page-read counters, and the reuse-ladder outcome. The trace exists
// once the job has started running; a still-queued job 404s.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job := s.sessionJob(w, r)
	if job == nil {
		return
	}
	tr := job.Trace()
	if tr == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("job %s has no trace yet (still queued, or shed before running)", job.ID()))
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// registerCacheGauges mirrors the aggregate reuse-cache counters into
// the registry as blaeu_cache_*{tier="map"} gauges, refreshed per
// scrape (the label keeps the series scrapers already query). Gauges,
// not counters: the aggregate sums live sessions, so values drop when a
// session closes.
func (s *Server) registerCacheGauges() {
	reg := s.manager.Telemetry().Reg()
	if reg == nil {
		return
	}
	l := obs.Labels{"tier": "map"}
	hits := reg.Gauge("blaeu_cache_hits", "Reuse-cache hits summed over open sessions.", l)
	misses := reg.Gauge("blaeu_cache_misses", "Reuse-cache misses summed over open sessions.", l)
	entries := reg.Gauge("blaeu_cache_entries", "Cached entries summed over open sessions.", l)
	capacity := reg.Gauge("blaeu_cache_capacity", "Configured cache capacity summed over open sessions.", l)
	evictions := reg.Gauge("blaeu_cache_evictions", "Cache evictions summed over open sessions.", l)
	reg.RegisterCollector(func() {
		t := s.collectCacheStats().Totals.Map
		hits.Set(float64(t.Hits))
		misses.Set(float64(t.Misses))
		entries.Set(float64(t.Entries))
		capacity.Set(float64(t.Capacity))
		evictions.Set(float64(t.Evictions))
	})
}
