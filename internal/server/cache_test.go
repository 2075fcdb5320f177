package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestOpenCacheSizeOptions: the open request's mapCacheSize override
// must validate, apply, and surface as the capacity in the state
// response's cache block, which carries no other tier.
func TestOpenCacheSizeOptions(t *testing.T) {
	ts := testServer(t)
	st := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]any{
		"dataset": "blobs",
		"options": map[string]any{"mapCacheSize": 4},
	}, http.StatusCreated)
	cache, ok := st["cache"].(map[string]any)
	if !ok {
		t.Fatalf("state response has no cache block: %v", st)
	}
	mapTier, _ := cache["map"].(map[string]any)
	if got := mapTier["capacity"]; got != float64(4) {
		t.Errorf("map cache capacity = %v, want 4", got)
	}
	if len(cache) != 1 {
		t.Errorf("cache block %v, want the map block alone", cache)
	}

	// -1 disables the cache: capacity 0 in the stats.
	st = doJSON(t, "POST", ts.URL+"/api/sessions", map[string]any{
		"dataset": "blobs",
		"options": map[string]any{"mapCacheSize": -1},
	}, http.StatusCreated)
	cache = st["cache"].(map[string]any)
	if got := cache["map"].(map[string]any)["capacity"]; got != float64(0) {
		t.Errorf("disabled map cache capacity = %v, want 0", got)
	}
}

// TestOpenCacheSizeValidation rejects out-of-range cache sizes with 400.
func TestOpenCacheSizeValidation(t *testing.T) {
	ts := testServer(t)
	for _, bad := range []map[string]any{
		{"mapCacheSize": -2},
		{"mapCacheSize": 100000},
	} {
		res := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]any{
			"dataset": "blobs", "options": bad,
		}, http.StatusBadRequest)
		if res["error"] == "" {
			t.Errorf("options %v: want an error body", bad)
		}
	}
}

// TestCacheStatsEndpoint drives a select + zoom + re-zoom and checks
// GET /api/cache/stats reports the session's reuse counters (and the
// state response carries the same block).
func TestCacheStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select", map[string]int{"theme": 0}, http.StatusOK)

	st := doJSON(t, "GET", ts.URL+"/api/sessions/"+id, nil, http.StatusOK)
	var path []any
	if mp, ok := st["map"].(map[string]any); ok {
		root := mp["root"].(map[string]any)
		if kids, ok := root["children"].([]any); ok && len(kids) > 0 {
			path = kids[0].(map[string]any)["path"].([]any)
		}
	}
	if path == nil {
		t.Fatal("no zoomable region")
	}
	ipath := make([]int, len(path))
	for i, v := range path {
		ipath[i] = int(v.(float64))
	}
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/zoom", map[string]any{"path": ipath}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/rollback", nil, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/zoom", map[string]any{"path": ipath}, http.StatusOK)

	res, err := http.Get(ts.URL + "/api/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Sessions map[string]struct {
			Map struct {
				Hits, Derived, Misses, Entries, Capacity int
			} `json:"map"`
		} `json:"sessions"`
		Totals json.RawMessage `json:"totals"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	s, ok := out.Sessions[id]
	if !ok {
		t.Fatalf("session %s missing from cache stats: %+v", id, out.Sessions)
	}
	if s.Map.Hits != 1 {
		t.Errorf("map hits = %d, want 1 (the re-zoom)", s.Map.Hits)
	}
	if s.Map.Misses < 2 {
		t.Errorf("map misses = %d, want >= 2", s.Map.Misses)
	}
	if s.Map.Capacity == 0 {
		t.Error("default capacity should be non-zero")
	}
	if s.Map.Derived > s.Map.Misses {
		t.Errorf("derived %d > misses %d (only a miss derives)", s.Map.Derived, s.Map.Misses)
	}
	if s.Map.Entries < 2 {
		t.Errorf("entries = %d, want >= 2 (the select and the zoom)", s.Map.Entries)
	}
	if len(out.Totals) == 0 {
		t.Error("no totals block")
	}
}
