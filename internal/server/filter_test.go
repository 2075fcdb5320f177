package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
)

// gateClock is an obs.Clock that, once armed, parks every read until the
// gate opens. A build job's first read is the start of its trace, inside
// the running job and before it takes the session lock, and no state
// route reads the clock: a job held running for as long as a test needs,
// without sleeping on durations. Unarmed or open it reads the wall clock.
type gateClock struct {
	armed   atomic.Bool
	parked  chan struct{} // one token per parked read
	release chan struct{}
	once    sync.Once
}

func (g *gateClock) Now() time.Time {
	if g.armed.Load() {
		select {
		case g.parked <- struct{}{}:
		default:
		}
		<-g.release
	}
	return time.Now()
}

func (g *gateClock) open() { g.once.Do(func() { close(g.release) }) }

func (g *gateClock) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no build reached the gate")
	}
}

// gatedServer serves the blobs dataset with the gate as the clock of
// every build's trace. returned receives a token whenever a POST …/filter
// handler has returned.
func gatedServer(t *testing.T, cfg jobs.Config) (ts *httptest.Server, gate *gateClock, returned chan struct{}) {
	t.Helper()
	gate = &gateClock{parked: make(chan struct{}, 1), release: make(chan struct{})}
	returned = make(chan struct{}, 1)
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 400, K: 3, Dims: 4, Sep: 8}, rand.New(rand.NewSource(1)))
	srv := NewWith(map[string]store.Relation{"blobs": ds.Table},
		core.Options{Seed: 1, SampleSize: 400},
		session.NewManagerObs(cfg, &obs.Telemetry{Registry: obs.NewRegistry(), Clock: gate}))
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/filter") {
			select {
			case returned <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(gate.open) // runs before ts.Close, which waits for handlers a parked build would hold
	return ts, gate, returned
}

// getJSON GETs url and decodes the 200 response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	res, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// lastJob returns the newest entry of the session's job list.
func lastJob(t *testing.T, base string) map[string]any {
	t.Helper()
	var list []map[string]any
	getJSON(t, base+"/jobs", &list)
	if len(list) == 0 {
		t.Fatal("the session has no jobs")
	}
	return list[len(list)-1]
}

// TestStateAnswersWhileFilterBuilds: a filter's build runs on a pool
// worker with the session lock released, so the session still answers
// reads — and reports the build as an in-flight job — while it runs.
func TestStateAnswersWhileFilterBuilds(t *testing.T) {
	ts, gate, _ := gatedServer(t, jobs.Config{})
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)

	gate.armed.Store(true)
	filtered := make(chan int, 1)
	go func() {
		res, err := http.Post(base+"/filter", "application/json", strings.NewReader(`{"expr":"v0 >= 0"}`))
		if err != nil {
			filtered <- -1
			return
		}
		res.Body.Close()
		filtered <- res.StatusCode
	}()
	gate.waitParked(t)

	var st map[string]any
	getJSON(t, base, &st) // answered while the filter job runs
	if st["action"] != "select-theme" || int(st["historyDepth"].(float64)) != 2 {
		t.Errorf("state during the build: action %v depth %v, want the select's", st["action"], st["historyDepth"])
	}
	inflight, _ := st["jobs"].([]any)
	if len(inflight) != 1 {
		t.Fatalf("state reports %d in-flight jobs during the filter, want 1: %v", len(inflight), st["jobs"])
	}
	if j := inflight[0].(map[string]any); j["kind"] != "filter" || j["status"] != "running" {
		t.Errorf("in-flight job = %v, want a running filter", j)
	}

	gate.open()
	if code := <-filtered; code != http.StatusOK {
		t.Fatalf("filter answered %d once released", code)
	}
	getJSON(t, base, &st)
	if st["action"] != "filter" || int(st["historyDepth"].(float64)) != 3 || st["map"] == nil {
		t.Errorf("state after the filter: action %v depth %v map %v", st["action"], st["historyDepth"], st["map"] != nil)
	}
}

// TestFilterQueueFull429: a filter is admitted like any other build —
// with the session's queue at its cap the synchronous route answers 429
// with Retry-After instead of running on the handler's goroutine.
func TestFilterQueueFull429(t *testing.T) {
	ts, gate, _ := gatedServer(t, jobs.Config{MaxQueuedPerSession: 1})
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)

	gate.armed.Store(true)
	first := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "filter", "expr": "v0 >= 0"}, http.StatusAccepted)
	gate.waitParked(t)
	// The running job does not count against the cap; this one fills it.
	second := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "project", "theme": 0}, http.StatusAccepted)

	res, err := http.Post(base+"/filter", "application/json", strings.NewReader(`{"expr":"v1 >= 0"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests || res.Header.Get("Retry-After") == "" {
		t.Errorf("over-cap filter: status %d, Retry-After %q; want 429 with the header", res.StatusCode, res.Header.Get("Retry-After"))
	}

	gate.open()
	for _, j := range []map[string]any{first, second} {
		if final := pollJob(t, base, j["id"].(string)); final["status"] != "done" {
			t.Errorf("admitted job = %v", final)
		}
	}
}

// TestFilterClientDisconnectCancelsBuild: when the client of a
// synchronous filter goes away mid-build the job is cancelled, and a
// cancelled job never applies — the history is untouched.
func TestFilterClientDisconnectCancelsBuild(t *testing.T) {
	ts, gate, returned := gatedServer(t, jobs.Config{})
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)

	gate.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/filter", strings.NewReader(`{"expr":"v0 >= 0"}`))
		if err != nil {
			gone <- err
			return
		}
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			res.Body.Close()
		}
		gone <- err
	}()
	gate.waitParked(t)
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("the abandoned request got an answer")
	}
	// The handler returns once it has seen the client leave and cancelled
	// the job; only then may the parked build move on.
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the filter handler never noticed its client leaving")
	}
	gate.open()

	job := lastJob(t, base)
	if job["kind"] != "filter" {
		t.Fatalf("newest job = %v, want the filter", job)
	}
	if final := pollJob(t, base, job["id"].(string)); final["status"] != "cancelled" {
		t.Errorf("abandoned filter job = %v, want cancelled", final)
	}
	var st map[string]any
	getJSON(t, base, &st)
	if st["action"] != "select-theme" || int(st["historyDepth"].(float64)) != 2 {
		t.Errorf("abandoned filter moved the session: action %v depth %v", st["action"], st["historyDepth"])
	}
}

// TestFilterIsATracedJob: one synchronous filter leaves what every
// other build leaves — a done job of kind filter with its reuse tier, a
// trace with stage spans, and one blaeu_build_seconds sample under
// action="filter".
func TestFilterIsATracedJob(t *testing.T) {
	ts := metricsTestServer(t)
	id, _ := openSession(t, ts, "seg")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	doJSON(t, "POST", base+"/filter", map[string]string{"expr": "v0 >= 0"}, http.StatusOK)

	job := lastJob(t, base)
	meta, _ := job["meta"].(map[string]any)
	if job["kind"] != "filter" || job["status"] != "done" || meta["reuse"] == nil {
		t.Fatalf("newest job = %v, want a done filter with reuse metadata", job)
	}
	tr := doJSON(t, "GET", base+"/jobs/"+job["id"].(string)+"/trace", nil, http.StatusOK)
	if attrs, _ := tr["attrs"].(map[string]any); attrs["action"] != "filter" || attrs["reuse"] != meta["reuse"] {
		t.Errorf("trace attrs = %v, want action filter and reuse %v", tr["attrs"], meta["reuse"])
	}
	seen := map[string]bool{}
	spans, _ := tr["spans"].([]any)
	for _, s := range spans {
		seen[s.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"sample", "cluster", "region"} {
		if !seen[want] {
			t.Errorf("filter trace lacks the %q span (spans: %v)", want, spans)
		}
	}

	body, _ := getBody(t, ts.URL+"/metrics")
	var count float64
	for key, v := range parsePromText(t, body) {
		if strings.HasPrefix(key, `blaeu_build_seconds_count{action="filter"`) {
			count += v
		}
	}
	if count != 1 {
		t.Errorf(`blaeu_build_seconds{action="filter"} holds %v samples, want 1`, count)
	}
}

// TestFilterAsyncSubmit: POST …/jobs takes a filter like any other
// action, and a bad expression is a failed job, as a bad theme is.
func TestFilterAsyncSubmit(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)

	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "filter", "expr": "v0 >= 0"}, http.StatusAccepted)
	if info["kind"] != "filter" {
		t.Errorf("submitted job = %v", info)
	}
	final := pollJob(t, base, info["id"].(string))
	if meta, _ := final["meta"].(map[string]any); final["status"] != "done" || meta["reuse"] == nil {
		t.Fatalf("async filter job = %v", final)
	}
	st := doJSON(t, "GET", base, nil, http.StatusOK)
	if st["action"] != "filter" || st["map"] == nil || int(st["rows"].(float64)) >= 400 ||
		!strings.Contains(st["query"].(string), "v0 >= 0") {
		t.Errorf("state after the async filter = action %v rows %v query %v", st["action"], st["rows"], st["query"])
	}

	info = doJSON(t, "POST", base+"/jobs", map[string]any{"action": "filter", "expr": "not parseable !!"}, http.StatusAccepted)
	if final := pollJob(t, base, info["id"].(string)); final["status"] != "failed" || final["error"] == "" {
		t.Errorf("unparseable filter job = %v", final)
	}
}

// TestOversizedBodyIs413: every route that decodes a JSON body reads at
// most maxBodyBytes of it and answers a typed 413 beyond that; a small
// malformed body stays a 400.
func TestOversizedBodyIs413(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	huge := `{"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []struct{ name, url string }{
		{"open", ts.URL + "/api/sessions"},
		{"action", base + "/filter"},
		{"annotate", base + "/annotate"},
		{"job submit", base + "/jobs"},
	} {
		for body, want := range map[string]int{huge: http.StatusRequestEntityTooLarge, `{"pad":`: http.StatusBadRequest} {
			res, err := http.Post(route.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", route.name, err)
			}
			var out map[string]string
			err = json.NewDecoder(res.Body).Decode(&out)
			res.Body.Close()
			if res.StatusCode != want || err != nil || out["error"] == "" {
				t.Errorf("%s with a %d-byte body: status %d, body %v (err %v); want %d with an error body",
					route.name, len(body), res.StatusCode, out, err, want)
			}
		}
	}
}
