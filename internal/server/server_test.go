package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/store"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rng)
	hw := datagen.Hollywood(rand.New(rand.NewSource(2)))
	srv := NewWith(map[string]store.Relation{"blobs": ds.Table, "hollywood": hw.Table},
		core.Options{Seed: 1, SampleSize: 400}, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d", method, url, res.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func openSession(t *testing.T, ts *httptest.Server, dataset string) (string, map[string]any) {
	t.Helper()
	st := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]string{"dataset": dataset}, http.StatusCreated)
	id, _ := st["sessionId"].(string)
	if id == "" {
		t.Fatal("no session id")
	}
	return id, st
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ds []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("datasets = %v", ds)
	}
}

func TestOpenSessionReturnsThemes(t *testing.T) {
	ts := testServer(t)
	_, st := openSession(t, ts, "blobs")
	themes, _ := st["themes"].([]any)
	if len(themes) == 0 {
		t.Fatal("no themes in open response")
	}
	if st["query"] == "" {
		t.Error("missing query")
	}
	if int(st["rows"].(float64)) != 400 {
		t.Errorf("rows = %v", st["rows"])
	}
}

func TestOpenUnknownDataset(t *testing.T) {
	ts := testServer(t)
	doJSON(t, "POST", ts.URL+"/api/sessions", map[string]string{"dataset": "zzz"}, http.StatusNotFound)
}

func TestFullNavigationFlow(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id

	// Select theme 0 → map appears.
	st := doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	mp, _ := st["map"].(map[string]any)
	if mp == nil {
		t.Fatal("no map after select")
	}
	if int(mp["k"].(float64)) < 2 {
		t.Errorf("map k = %v", mp["k"])
	}
	// Find the first leaf path.
	root := mp["root"].(map[string]any)
	leaf := root
	var path []int
	for {
		children, ok := leaf["children"].([]any)
		if !ok || len(children) == 0 {
			break
		}
		leaf = children[0].(map[string]any)
		path = append(path, 0)
	}
	// Zoom into the leaf.
	st = doJSON(t, "POST", base+"/zoom", map[string]any{"path": path}, http.StatusOK)
	if st["action"] != "zoom" {
		t.Errorf("action = %v", st["action"])
	}
	zoomRows := int(st["rows"].(float64))
	if zoomRows >= 400 || zoomRows <= 0 {
		t.Errorf("zoom rows = %d", zoomRows)
	}
	if q := st["query"].(string); !strings.Contains(q, "WHERE") {
		t.Errorf("query after zoom = %q", q)
	}
	// Project onto the same theme (single-theme dataset).
	st = doJSON(t, "POST", base+"/project", map[string]int{"theme": 0}, http.StatusOK)
	if int(st["rows"].(float64)) != zoomRows {
		t.Error("project changed the selection")
	}
	// Highlight a column in the root region.
	res, err := http.Get(base + "/highlight?column=v0")
	if err != nil {
		t.Fatal(err)
	}
	var hl map[string]any
	if err := json.NewDecoder(res.Body).Decode(&hl); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("highlight status %d: %v", res.StatusCode, hl)
	}
	// Rollback three times → back to init (no map).
	doJSON(t, "POST", base+"/rollback", nil, http.StatusOK)
	doJSON(t, "POST", base+"/rollback", nil, http.StatusOK)
	st = doJSON(t, "POST", base+"/rollback", nil, http.StatusOK)
	if _, has := st["map"]; has && st["map"] != nil {
		t.Error("map should be gone after full rollback")
	}
	// Fourth rollback fails.
	doJSON(t, "POST", base+"/rollback", nil, http.StatusBadRequest)
}

func TestZoomInvalidPath(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/zoom", map[string]any{"path": []int{0}}, http.StatusBadRequest)
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	doJSON(t, "POST", base+"/zoom", map[string]any{"path": []int{99}}, http.StatusBadRequest)
}

func TestSelectInvalidTheme(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select", map[string]int{"theme": 99}, http.StatusBadRequest)
}

func TestUnknownSession(t *testing.T) {
	ts := testServer(t)
	doJSON(t, "POST", ts.URL+"/api/sessions/nope/select", map[string]int{"theme": 0}, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/api/sessions/nope", nil, http.StatusNotFound)
}

func TestCloseSession(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/sessions/"+id, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", res.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/api/sessions/"+id, nil, http.StatusNotFound)
}

func TestMapSVG(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	// Before a map exists: 400.
	res, _ := http.Get(base + "/map.svg")
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-map svg status %d", res.StatusCode)
	}
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	res, err := http.Get(base + "/map.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("svg status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("not svg")
	}
}

func TestIndexServed(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(res.Body)
	if !strings.Contains(buf.String(), "Blaeu") {
		t.Error("index page missing")
	}
	res2, _ := http.Get(ts.URL + "/nope")
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Error("unknown path should 404")
	}
}

func TestHighlightBadPath(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	// An empty element is an error, as in the CLI.
	for _, path := range []string{"abc", "0,,1"} {
		res, _ := http.Get(base + "/highlight?column=v0&path=" + path)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("bad path %q status %d", path, res.StatusCode)
		}
	}
}

func TestHollywoodSessionEndToEnd(t *testing.T) {
	ts := testServer(t)
	id, st := openSession(t, ts, "hollywood")
	themes, _ := st["themes"].([]any)
	if len(themes) < 2 {
		t.Fatalf("hollywood themes = %d", len(themes))
	}
	// Map every theme without error.
	for i := range themes {
		doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select",
			map[string]int{"theme": i}, http.StatusOK)
	}
}

func TestConcurrentSessionsIsolated(t *testing.T) {
	ts := testServer(t)
	a, _ := openSession(t, ts, "blobs")
	b, _ := openSession(t, ts, "blobs")
	if a == b {
		t.Fatal("session ids collide")
	}
	doJSON(t, "POST", ts.URL+"/api/sessions/"+a+"/select", map[string]int{"theme": 0}, http.StatusOK)
	// Session b is untouched: still at init depth 1.
	st := doJSON(t, "GET", ts.URL+"/api/sessions/"+b, nil, http.StatusOK)
	if int(st["historyDepth"].(float64)) != 1 {
		t.Error("sessions not isolated")
	}
}

func TestScatterEndpoint(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	res, err := http.Get(base + "/scatter?x=v0&y=v1")
	if err != nil {
		t.Fatal(err)
	}
	var sd map[string]any
	if err := json.NewDecoder(res.Body).Decode(&sd); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("scatter status %d: %v", res.StatusCode, sd)
	}
	if int(sd["N"].(float64)) != 400 {
		t.Errorf("scatter N = %v", sd["N"])
	}
	// Bad column.
	res, _ = http.Get(base + "/scatter?x=zzz&y=v1")
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Error("bad column should 400")
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	doJSON(t, "POST", base+"/annotate", map[string]any{"path": []int{0}, "text": "note"}, http.StatusOK)
	doJSON(t, "POST", base+"/annotate", map[string]any{"path": []int{0}, "text": ""}, http.StatusBadRequest)
	doJSON(t, "POST", base+"/annotate", map[string]any{"path": []int{99}, "text": "x"}, http.StatusBadRequest)
}

func TestFilterEndpoint(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	st := doJSON(t, "POST", base+"/filter", map[string]string{"expr": "v0 >= 0"}, http.StatusOK)
	if int(st["rows"].(float64)) >= 400 {
		t.Errorf("filter rows = %v", st["rows"])
	}
	if st["action"] != "filter" {
		t.Errorf("action = %v", st["action"])
	}
	// No theme was selected, so the state has no map — but the filter
	// still ran as a job.
	if st["map"] != nil || int(st["historyDepth"].(float64)) != 2 {
		t.Errorf("map-less filter: map %v, depth %v", st["map"], st["historyDepth"])
	}
	if job := lastJob(t, base); job["kind"] != "filter" || job["status"] != "done" {
		t.Errorf("map-less filter job = %v", job)
	}
	doJSON(t, "POST", base+"/filter", map[string]string{"expr": "not parseable !!"}, http.StatusBadRequest)
	doJSON(t, "POST", base+"/filter", map[string]string{"expr": "v0 > 1e12"}, http.StatusBadRequest)
}

func TestExportEndpoint(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	snap := doJSON(t, "GET", base+"/export", nil, http.StatusOK)
	if snap["table"] != "blobs" {
		t.Errorf("export table = %v", snap["table"])
	}
	hist, _ := snap["history"].([]any)
	if len(hist) != 2 {
		t.Errorf("export history = %d states", len(hist))
	}
	last := hist[1].(map[string]any)
	if last["action"] != "select" || last["map"] == nil {
		t.Errorf("export last state = %v", last)
	}
}

// TestExportHistoryCarriesActions: after select → zoom → annotate, the
// export's last history entry records the zoom's action — kind and path
// — and its map is encoded byte for byte as the state response's, the
// annotation included: one map encoding serves both routes.
func TestExportHistoryCarriesActions(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	path := []int{0}
	doJSON(t, "POST", base+"/zoom", map[string]any{"path": path}, http.StatusOK)
	doJSON(t, "POST", base+"/annotate", map[string]any{"path": []int{0}, "text": "note"}, http.StatusOK)

	var state struct {
		Map json.RawMessage `json:"map"`
	}
	getJSON(t, base, &state)
	var export struct {
		History []struct {
			core.Action
			Map json.RawMessage `json:"map"`
		} `json:"history"`
	}
	getJSON(t, base+"/export", &export)
	if len(export.History) != 3 {
		t.Fatalf("export history = %d states, want 3", len(export.History))
	}
	last := export.History[2]
	if last.Kind != core.ActionZoom || !reflect.DeepEqual(last.Path, path) {
		t.Errorf("last history action = %+v, want zoom into %v", last.Action, path)
	}
	if !bytes.Equal(last.Map, state.Map) {
		t.Errorf("export map differs from the state map:\n%s\nvs\n%s", last.Map, state.Map)
	}
	if !bytes.Contains(state.Map, []byte(`"annotations":["note"]`)) {
		t.Errorf("state map lost the annotation: %s", state.Map)
	}
	if first := export.History[1]; first.Kind != core.ActionSelect || first.Theme != 0 {
		t.Errorf("select history action = %+v", first.Action)
	}
}

// TestOpenClusterOptions: the open request has no options block — every
// session runs under the server's options, and -map-cache is the one
// cache-size setting. An open without the block creates a session; any
// block, the once-valid mapCacheSize and the retired keys included, is
// a 400 with an error body that creates no session, whatever the
// dataset.
func TestOpenClusterOptions(t *testing.T) {
	cases := []struct {
		name       string
		dataset    string
		options    any // nil: no block
		wantStatus int
	}{
		{"defaults", "blobs", nil, http.StatusCreated},
		{"map cache size", "blobs", map[string]any{"mapCacheSize": 2}, http.StatusBadRequest},
		{"empty block", "blobs", map[string]any{}, http.StatusBadRequest},
		{"null block", "blobs", json.RawMessage("null"), http.StatusBadRequest},
		{"retired algorithm", "blobs", map[string]any{"algorithm": "classic"}, http.StatusBadRequest},
		{"retired algorithm default", "blobs", map[string]any{"algorithm": "fasterpam"}, http.StatusBadRequest},
		{"kmeans++ seeding", "blobs", map[string]any{"seeding": "kmeans++"}, http.StatusBadRequest},
		{"retired seeding default", "blobs", map[string]any{"seeding": "auto"}, http.StatusBadRequest},
		{"bad seeding", "blobs", map[string]any{"seeding": "astrology"}, http.StatusBadRequest},
		{"retired oracle default", "blobs", map[string]any{"oracle": "auto"}, http.StatusBadRequest},
		{"lazy oracle", "blobs", map[string]any{"oracle": "lazy"}, http.StatusBadRequest},
		{"knn oracle", "blobs", map[string]any{"oracle": "knn"}, http.StatusBadRequest},
		{"matrix oracle", "blobs", map[string]any{"oracle": "matrix", "mapCacheSize": 2}, http.StatusBadRequest},
		{"bad oracle", "blobs", map[string]any{"oracle": "quantum"}, http.StatusBadRequest},
		{"matrix over the limit", "wide", map[string]any{"oracle": "matrix"}, http.StatusBadRequest},
		{"lazy over the limit", "wide", map[string]any{"oracle": "lazy"}, http.StatusBadRequest},
		{"retired artifact cache size", "blobs", map[string]any{"artifactCacheSize": 4}, http.StatusBadRequest},
		{"unknown key", "blobs", map[string]any{"oracel": "lazy"}, http.StatusBadRequest},
		{"bad alongside good", "blobs", map[string]any{"mapCacheSize": 2, "artifactCacheSize": 99999}, http.StatusBadRequest},
	}
	small := testServer(t)
	wide := datagen.PlantedBlobs(datagen.BlobSpec{N: 2100, K: 3, Dims: 4, Sep: 8}, rand.New(rand.NewSource(3)))
	bigSrv := NewWith(map[string]store.Relation{"wide": wide.Table}, core.Options{Seed: 1, SampleSize: 4096}, nil)
	big := httptest.NewServer(bigSrv)
	t.Cleanup(big.Close)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := small
			if tc.dataset == "wide" {
				ts = big
			}
			body := map[string]any{"dataset": tc.dataset}
			if tc.options != nil {
				body["options"] = tc.options
			}
			st := doJSON(t, "POST", ts.URL+"/api/sessions", body, tc.wantStatus)
			if tc.wantStatus != http.StatusCreated {
				if msg, ok := st["error"].(string); !ok || msg == "" {
					t.Errorf("error response has no message: %v", st)
				}
				if _, ok := st["sessionId"]; ok {
					t.Errorf("a rejected open answered with a session: %v", st)
				}
				return
			}
			if _, ok := st["cluster"]; ok {
				t.Errorf("state still carries a cluster block: %v", st["cluster"])
			}
		})
	}
	if n := small.Config.Handler.(*Server).Manager().Len(); n != 1 {
		t.Errorf("%d sessions after one accepted open", n)
	}
	if n := bigSrv.Manager().Len(); n != 0 {
		t.Errorf("rejected opens left %d sessions", n)
	}
}

func TestStateEndpointShape(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	st := doJSON(t, "GET", ts.URL+"/api/sessions/"+id, nil, http.StatusOK)
	for _, key := range []string{"sessionId", "rows", "query", "action", "themes", "historyDepth"} {
		if _, ok := st[key]; !ok {
			t.Errorf("state missing %q: %v", key, st)
		}
	}
	if st["action"] != "init" {
		t.Errorf("action = %v", st["action"])
	}
	_ = fmt.Sprintf("%v", st)
}

// TestDatasetsPayloadStable: the dataset listing is built by ranging
// over a map; without the sort the array order leaked map iteration
// order, so the same server answered the same request with differently
// ordered JSON run to run. The payload must be byte-stable and sorted
// by name.
func TestDatasetsPayloadStable(t *testing.T) {
	ts := testServer(t)
	fetch := func() string {
		res, err := http.Get(ts.URL + "/api/datasets")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := fetch()
	var ds []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(first), &ds); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Name >= ds[i].Name {
			t.Fatalf("dataset listing not sorted by name: %v before %v", ds[i-1].Name, ds[i].Name)
		}
	}
	for i := 0; i < 20; i++ {
		if got := fetch(); got != first {
			t.Fatalf("payload changed between identical requests:\n%s\nvs\n%s", first, got)
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json rejects must become a
// 500 with the usual error body, not the intended status over an empty
// one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"v": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("error body %q (%v)", rec.Body.String(), err)
	}
}
