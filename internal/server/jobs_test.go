package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/session"
	"repro/internal/store"
)

// pollJob GETs the job until its status is terminal (or the deadline
// passes) and returns the final job info.
func pollJob(t *testing.T, base, jobID string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := doJSON(t, "GET", base+"/jobs/"+jobID, nil, http.StatusOK)
		switch info["status"] {
		case "done", "failed", "cancelled", "shed":
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", jobID, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pollJobStatus waits until the job reaches the wanted status and
// returns the info; fails if the job goes terminal some other way first.
func pollJobStatus(t *testing.T, base, jobID, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := doJSON(t, "GET", base+"/jobs/"+jobID, nil, http.StatusOK)
		status, _ := info["status"].(string)
		if status == want {
			return info
		}
		if status == "done" || status == "failed" || status == "cancelled" || status == "shed" {
			t.Fatalf("job %s reached %q while waiting for %q: %v", jobID, status, want, info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q", jobID, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncJobRoundTrip: submit → 202 → poll progress → done → the
// session state advanced.
func TestAsyncJobRoundTrip(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id

	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	jobID, _ := info["id"].(string)
	if jobID == "" {
		t.Fatalf("no job id: %v", info)
	}
	if info["session"] != id || info["kind"] != "select" {
		t.Errorf("job info = %v", info)
	}

	final := pollJob(t, base, jobID)
	if final["status"] != "done" {
		t.Fatalf("job = %v", final)
	}
	if p, _ := final["progress"].(float64); p != 1 {
		t.Errorf("done progress = %v", final["progress"])
	}
	st := doJSON(t, "GET", base, nil, http.StatusOK)
	if mp, _ := st["map"].(map[string]any); mp == nil {
		t.Fatal("no map after async select")
	}
	if int(st["historyDepth"].(float64)) != 2 {
		t.Errorf("depth = %v", st["historyDepth"])
	}
	// The jobs list knows the finished job.
	req, _ := http.NewRequest("GET", base+"/jobs", nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("job list status %d", res.StatusCode)
	}
}

func TestAsyncJobBadRequests(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	doJSON(t, "POST", base+"/jobs", map[string]any{"action": "teleport"}, http.StatusBadRequest)
	doJSON(t, "GET", base+"/jobs/nope", nil, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/api/sessions/zzz/jobs", map[string]any{"action": "select"}, http.StatusNotFound)
	// A failed build surfaces as a failed job, not an HTTP error.
	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 99}, http.StatusAccepted)
	final := pollJob(t, base, info["id"].(string))
	if final["status"] != "failed" || final["error"] == "" {
		t.Errorf("invalid-theme job = %v", final)
	}
}

// TestJobsAreSessionScoped: session B cannot see or cancel session A's
// jobs.
func TestJobsAreSessionScoped(t *testing.T) {
	ts := testServer(t)
	a, _ := openSession(t, ts, "blobs")
	b, _ := openSession(t, ts, "blobs")
	info := doJSON(t, "POST", ts.URL+"/api/sessions/"+a+"/jobs",
		map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	jobID := info["id"].(string)
	doJSON(t, "GET", ts.URL+"/api/sessions/"+b+"/jobs/"+jobID, nil, http.StatusNotFound)
	doJSON(t, "DELETE", ts.URL+"/api/sessions/"+b+"/jobs/"+jobID, nil, http.StatusNotFound)
	pollJob(t, ts.URL+"/api/sessions/"+a, jobID)
}

// slowServer serves one big dataset with a full-size sampling budget, so
// map builds take seconds — long enough to observe and cancel
// mid-flight without sleeping on magic durations. cfg configures the
// scheduler (zero value = no backpressure limits).
func slowServerConfig(t *testing.T, cfg jobs.Config) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 20000, K: 4, Dims: 6, Sep: 6}, rng)
	srv := NewWith(map[string]store.Relation{"big": ds.Table},
		core.Options{Seed: 1, SampleSize: 20000, DependencySampleRows: 500},
		session.NewManagerObs(cfg, nil))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func slowServer(t *testing.T) *httptest.Server {
	t.Helper()
	return slowServerConfig(t, jobs.Config{})
}

// TestAsyncJobCancelMidBuild: a running build must be cancellable and
// leave the session state untouched.
func TestAsyncJobCancelMidBuild(t *testing.T) {
	ts := slowServer(t)
	id, _ := openSession(t, ts, "big")
	base := ts.URL + "/api/sessions/" + id

	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	jobID := info["id"].(string)
	pollJobStatus(t, base, jobID, "running")
	doJSON(t, "DELETE", base+"/jobs/"+jobID, nil, http.StatusOK)
	final := pollJob(t, base, jobID)
	if final["status"] != "cancelled" {
		t.Fatalf("job after mid-build cancel = %v", final)
	}
	st := doJSON(t, "GET", base, nil, http.StatusOK)
	if int(st["historyDepth"].(float64)) != 1 {
		t.Errorf("cancelled build mutated the session (depth %v)", st["historyDepth"])
	}
	if _, has := st["map"]; has && st["map"] != nil {
		t.Error("cancelled build left a map behind")
	}
}

// TestAsyncJobCancelQueued: with the first build running, a second job
// queues behind it (per-session FIFO) and cancels instantly.
func TestAsyncJobCancelQueued(t *testing.T) {
	ts := slowServer(t)
	id, _ := openSession(t, ts, "big")
	base := ts.URL + "/api/sessions/" + id

	first := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	pollJobStatus(t, base, first["id"].(string), "running")
	second := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "project", "theme": 0}, http.StatusAccepted)
	if second["status"] != "queued" {
		t.Fatalf("second job = %v, want queued", second)
	}
	// The state report shows both in-flight jobs.
	st := doJSON(t, "GET", base, nil, http.StatusOK)
	if inflight, _ := st["jobs"].([]any); len(inflight) != 2 {
		t.Errorf("state reports %d in-flight jobs, want 2: %v", len(inflight), st["jobs"])
	}
	cancelled := doJSON(t, "DELETE", base+"/jobs/"+second["id"].(string), nil, http.StatusOK)
	if cancelled["status"] != "cancelled" {
		t.Fatalf("queued cancel = %v", cancelled)
	}
	// Stop the first build too; the test is done with it.
	doJSON(t, "DELETE", base+"/jobs/"+first["id"].(string), nil, http.StatusOK)
	pollJob(t, base, first["id"].(string))
}

// TestZoomCacheHitOverWire: re-zooming a previously visited selection
// must be answered by the zoom cache and report so in the job metadata.
func TestZoomCacheHitOverWire(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id

	st := doJSON(t, "POST", base+"/select", map[string]int{"theme": 0}, http.StatusOK)
	mp := st["map"].(map[string]any)
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
	doJSON(t, "POST", base+"/zoom", map[string]any{"path": path}, http.StatusOK)
	doJSON(t, "POST", base+"/rollback", nil, http.StatusOK)

	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "zoom", "path": path}, http.StatusAccepted)
	final := pollJob(t, base, info["id"].(string))
	if final["status"] != "done" {
		t.Fatalf("re-zoom job = %v", final)
	}
	meta, _ := final["meta"].(map[string]any)
	if meta == nil || meta["cacheHit"] != true {
		t.Errorf("re-zoom should report cacheHit, got meta %v", meta)
	}
	st = doJSON(t, "GET", base, nil, http.StatusOK)
	if st["action"] != "zoom" {
		t.Errorf("state after cached zoom = %v", st["action"])
	}
}

// TestCancelTerminalJobIdempotent pins the DELETE contract on a job
// that already finished: 200 every time, and the job's final status is
// never rewritten by a late cancel.
func TestCancelTerminalJobIdempotent(t *testing.T) {
	ts := testServer(t)
	id, _ := openSession(t, ts, "blobs")
	base := ts.URL + "/api/sessions/" + id
	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	jobID := info["id"].(string)
	if final := pollJob(t, base, jobID); final["status"] != "done" {
		t.Fatalf("job = %v", final)
	}
	for i := 0; i < 2; i++ {
		got := doJSON(t, "DELETE", base+"/jobs/"+jobID, nil, http.StatusOK)
		if got["status"] != "done" {
			t.Fatalf("cancel #%d of a done job rewrote its status to %v", i+1, got["status"])
		}
		if p, _ := got["progress"].(float64); p != 1 {
			t.Errorf("cancel #%d of a done job reset progress to %v", i+1, got["progress"])
		}
	}
}

// TestSubmitQueueFull429: with the per-session queue cap reached, both
// the async submit and the sync navigation endpoints answer 429 with a
// Retry-After header instead of queueing unboundedly.
func TestSubmitQueueFull429(t *testing.T) {
	ts := slowServerConfig(t, jobs.Config{MaxQueuedPerSession: 1})
	id, _ := openSession(t, ts, "big")
	base := ts.URL + "/api/sessions/" + id

	first := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	pollJobStatus(t, base, first["id"].(string), "running")
	// The running job does not count against the queue cap; this one
	// fills the single queue slot.
	second := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "project", "theme": 0}, http.StatusAccepted)

	req, _ := http.NewRequest("POST", base+"/jobs",
		strings.NewReader(`{"action":"select","theme":0}`))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap async submit status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var body map[string]string
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Errorf("429 body = %v (err %v)", body, err)
	}
	// The sync navigation path shares the same admission control.
	req2, _ := http.NewRequest("POST", base+"/select", strings.NewReader(`{"theme":0}`))
	res2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap sync submit status = %d, want 429", res2.StatusCode)
	}
	if res2.Header.Get("Retry-After") == "" {
		t.Error("sync 429 without Retry-After")
	}
	// The state response exposes the pressure.
	st := doJSON(t, "GET", base, nil, http.StatusOK)
	sched, _ := st["scheduler"].(map[string]any)
	if sched == nil || sched["queued"].(float64) != 1 || sched["queueCap"].(float64) != 1 {
		t.Errorf("scheduler block = %v", sched)
	}
	// Unblock the test server.
	doJSON(t, "DELETE", base+"/jobs/"+second["id"].(string), nil, http.StatusOK)
	doJSON(t, "DELETE", base+"/jobs/"+first["id"].(string), nil, http.StatusOK)
	pollJob(t, base, first["id"].(string))
}

// TestJobStatsEndpoint: GET /api/jobs/stats serves the scheduler
// snapshot, with tenants attributed from the open request.
func TestJobStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	st := doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]string{"dataset": "blobs", "tenant": "gold"}, http.StatusCreated)
	id, _ := st["sessionId"].(string)
	if sched, _ := st["scheduler"].(map[string]any); sched == nil || sched["tenant"] != "gold" {
		t.Fatalf("open-state scheduler block = %v", st["scheduler"])
	}
	base := ts.URL + "/api/sessions/" + id
	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	if info["tenant"] != "gold" {
		t.Errorf("job info tenant = %v, want gold", info["tenant"])
	}
	pollJob(t, base, info["id"].(string))

	stats := doJSON(t, "GET", ts.URL+"/api/jobs/stats", nil, http.StatusOK)
	if w, _ := stats["workers"].(float64); w < 1 {
		t.Errorf("stats workers = %v", stats["workers"])
	}
	tenants, _ := stats["tenants"].(map[string]any)
	gold, _ := tenants["gold"].(map[string]any)
	if gold == nil {
		t.Fatalf("stats tenants = %v, want a gold entry", stats["tenants"])
	}
	if done, _ := gold["done"].(float64); done != 1 {
		t.Errorf("gold done = %v, want 1", gold["done"])
	}
}

// TestCloseCancelsJobsOverWire: DELETE on the session cancels its
// in-flight build (the cancel-on-close bugfix, observed over HTTP).
func TestCloseCancelsJobsOverWire(t *testing.T) {
	ts := slowServer(t)
	id, _ := openSession(t, ts, "big")
	base := ts.URL + "/api/sessions/" + id
	info := doJSON(t, "POST", base+"/jobs", map[string]any{"action": "select", "theme": 0}, http.StatusAccepted)
	jobID := info["id"].(string)
	pollJobStatus(t, base, jobID, "running")
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", res.StatusCode)
	}
	// The session is gone (404), but the job object outlives it briefly;
	// verify the worker observed the cancellation by polling the pool
	// through a fresh session-less check: the job endpoint 404s with the
	// session, so just give the scheduler a moment and assert nothing
	// hangs.
	doJSON(t, "GET", base+"/jobs/"+jobID, nil, http.StatusNotFound)
}

// TestStateCostIndependentOfJobHistory: a state response lists only
// in-flight jobs, and costs the same allocations whether the session
// retains no terminal jobs or a full DefaultRetainPerSession of them.
func TestStateCostIndependentOfJobHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := datagen.PlantedBlobs(datagen.BlobSpec{N: 200, K: 3, Dims: 4, Sep: 8}, rng)
	srv := NewWith(map[string]store.Relation{"blobs": ds.Table}, core.Options{Seed: 1, SampleSize: 200}, nil)
	t.Cleanup(srv.Manager().Shutdown)
	sess, err := srv.Manager().Open(ds.Table, core.Options{Seed: 1, SampleSize: 200}, "")
	if err != nil {
		t.Fatal(err)
	}
	state := func() float64 { return testing.AllocsPerRun(20, func() { srv.stateJSON(sess) }) }
	fresh := state()
	for i := 0; i < jobs.DefaultRetainPerSession; i++ {
		j, err := srv.Manager().Pool().Submit(sess.ID, "", "noop", func(context.Context, *jobs.Job) (any, error) { return nil, nil }, jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.Manager().Pool().SessionJobs(sess.ID)); got != jobs.DefaultRetainPerSession {
		t.Fatalf("session retains %d jobs, want %d", got, jobs.DefaultRetainPerSession)
	}
	if st := srv.stateJSON(sess); len(st.Jobs) != 0 {
		t.Errorf("state lists %d jobs, want none in flight", len(st.Jobs))
	}
	if retained := state(); retained > fresh {
		t.Errorf("a state response allocates %.0f times with %d retained jobs, %.0f with none",
			retained, jobs.DefaultRetainPerSession, fresh)
	}
}
