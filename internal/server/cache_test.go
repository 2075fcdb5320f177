package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

// TestOpenCacheSizeOptions: the server's options size every session's
// reuse cache (blaeud -map-cache), and the state response's cache block
// surfaces that capacity under map, with no other tier; -1 disables the
// cache (capacity 0).
func TestOpenCacheSizeOptions(t *testing.T) {
	rel := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rand.New(rand.NewSource(1))).Table
	for _, tc := range []struct{ size, want int }{{4, 4}, {-1, 0}} {
		ts := httptest.NewServer(NewWith(map[string]store.Relation{"blobs": rel},
			core.Options{Seed: 1, SampleSize: 400, MapCacheSize: tc.size}, nil))
		st := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]any{"dataset": "blobs"}, http.StatusCreated)
		ts.Close()
		cache, ok := st["cache"].(map[string]any)
		if !ok {
			t.Fatalf("state response has no cache block: %v", st)
		}
		mapTier, _ := cache["map"].(map[string]any)
		if got := mapTier["capacity"]; got != float64(tc.want) {
			t.Errorf("MapCacheSize %d: map cache capacity = %v, want %d", tc.size, got, tc.want)
		}
		if len(cache) != 1 {
			t.Errorf("cache block %v, want the map block alone", cache)
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
				Hits, Misses, Entries, Capacity int
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
	if s.Map.Entries < 2 {
		t.Errorf("entries = %d, want >= 2 (the select and the zoom)", s.Map.Entries)
	}
	if len(out.Totals) == 0 {
		t.Error("no totals block")
	}
}
