package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
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
	res, _ := http.Get(base + "/highlight?column=v0&path=abc")
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad path status %d", res.StatusCode)
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
	if last["action"] != "select-theme" || last["map"] == nil {
		t.Errorf("export last state = %v", last)
	}
}

// TestOpenClusterOptions is the table-driven contract of the open
// request's options block: the cache size creates a session; bad
// values, unknown keys and retired ones are rejected with 400 and no
// session is created.
func TestOpenClusterOptions(t *testing.T) {
	cases := []struct {
		name       string
		dataset    string
		options    map[string]any
		wantStatus int
	}{
		{"defaults", "blobs", nil, http.StatusCreated},
		{"map cache size", "blobs", map[string]any{"mapCacheSize": 2}, http.StatusCreated},
		// The PAM SWAP algorithm, the seeding scheme and the distance
		// oracle left the option surface — the engine chooses them: a
		// retired key is rejected like any unknown one, not silently
		// ignored, whatever value it carries and however large the
		// dataset.
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
		// The artifact cache merged into the map cache: its size is
		// retired too.
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
	if n := bigSrv.Manager().Len(); n != 0 {
		t.Errorf("rejected opens left %d sessions", n)
	}
}

// TestOpenClusterOptionsDrivesClustering: a session opened with the
// cache option must still navigate end to end, with the override in
// force.
func TestOpenClusterOptionsDrivesClustering(t *testing.T) {
	ts := testServer(t)
	st := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]any{
		"dataset": "blobs",
		"options": map[string]int{"mapCacheSize": 2},
	}, http.StatusCreated)
	id, _ := st["sessionId"].(string)
	st = doJSON(t, "POST", ts.URL+"/api/sessions/"+id+"/select", map[string]int{"theme": 0}, http.StatusOK)
	if mp, _ := st["map"].(map[string]any); mp == nil || int(mp["k"].(float64)) < 2 {
		t.Fatalf("no usable map under explicit options: %v", st["map"])
	}
	cache, _ := st["cache"].(map[string]any)
	mapTier, _ := cache["map"].(map[string]any)
	if mapTier["capacity"] != 2.0 {
		t.Errorf("cache capacity %v, want the override 2", mapTier["capacity"])
	}
}

// TestOpenOptionsTableMatchesWire: the keys of README's open-request
// options table are exactly the JSON keys clusterOptionsJSON decodes —
// what keeps a retired option from surviving in the documentation and a
// new one from hiding from it.
func TestOpenOptionsTableMatchesWire(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "The open request's `options` block has")
	if !ok {
		t.Fatal("README no longer introduces the open request's options table")
	}
	_, table, _ := strings.Cut(after, "\n|")
	table, _, _ = strings.Cut(table, "\n\n")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	var wire []string
	typ := reflect.TypeOf(clusterOptionsJSON{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		wire = append(wire, key)
	}
	sort.Strings(documented)
	sort.Strings(wire)
	if !reflect.DeepEqual(documented, wire) {
		t.Errorf("README documents the option keys %q, the open request decodes %q", documented, wire)
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
