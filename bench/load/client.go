package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder is the run's ledger: every operation attempted and failed,
// and, in a traced run, the latencies, spans and build records the
// per-layer metrics are computed from. Shared by the run's clients.
type recorder struct {
	traced bool
	start  time.Time // span offsets count from here

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few, for the report
	clicks    int
	respBytes int64
	lat       map[string][]float64 // route → client-observed ms
	builds    []buildRec
	spans     []span
	nextTrace int
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, start: time.Now(), lat: make(map[string][]float64)}
}

const maxReportedFailures = 8

// done books one operation; any problem makes it a failed one.
func (r *recorder) done(what string, problems []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	if len(r.failures) < maxReportedFailures {
		r.failures = append(r.failures, what+": "+strings.Join(problems, "; "))
	}
}

// span is one timed interval of a traced run. Spans of one click (or
// one layer-probe pass) share a trace number; Parent is the ID of the
// span that caused this one, 0 for a root.
type span struct {
	Trace   int     `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
}

// buildRec is one build click as seen from outside: the client's
// latency, the scheduler's split of it and the core stage trace.
type buildRec struct {
	route    string
	clientMs float64
	queueMs  float64
	runMs    float64
	reuse    string
	trace    obs.TraceSnapshot
}

// The residues of a build click: what each outer layer's interval holds
// beyond the interval nested in it.
func (b buildRec) edgeMs() float64           { return b.clientMs - b.queueMs - b.runMs }
func (b buildRec) sessionResidueMs() float64 { return b.runMs - b.trace.TotalMs }
func (b buildRec) coreResidueMs() float64 {
	rest := b.trace.TotalMs
	for _, sp := range b.trace.Spans {
		rest -= sp.DurationMs
	}
	return rest
}

func (r *recorder) sinceStartMs(t time.Time) float64 {
	return float64(t.Sub(r.start)) / float64(time.Millisecond)
}

// click books a click's latency and response size and, when tracing,
// its root span. It returns the trace number and root span ID.
func (r *recorder) click(route string, t0, t1 time.Time, respBytes int) (trace, root int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clicks++
	r.respBytes += int64(respBytes)
	if !r.traced {
		return 0, 0
	}
	r.lat[route] = append(r.lat[route], float64(t1.Sub(t0))/float64(time.Millisecond))
	r.nextTrace++
	return r.nextTrace, r.addSpanLocked(r.nextTrace, 0, "server."+route, r.sinceStartMs(t0), r.sinceStartMs(t1))
}

func (r *recorder) addSpanLocked(trace, parent int, name string, startMs, endMs float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, StartMs: startMs, EndMs: endMs})
	return id
}

// client is one analyst: a closed loop over one keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, base: base, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body any) (status int, data []byte, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// --- wire shapes, as far as the checks need them ---

type tierResp struct {
	Hits    int `json:"hits"`
	Derived int `json:"derived"`
	Misses  int `json:"misses"`
}

type regionResp struct {
	Path     []int        `json:"path"`
	Count    int          `json:"count"`
	Children []regionResp `json:"children"`
}

type mapResp struct {
	K    int        `json:"k"`
	Root regionResp `json:"root"`
}

type themeResp struct {
	ID      int      `json:"id"`
	Columns []string `json:"columns"`
}

type stateResp struct {
	SessionID string      `json:"sessionId"`
	Rows      int         `json:"rows"`
	Themes    []themeResp `json:"themes"`
	Map       *mapResp    `json:"map"`
	Depth     int         `json:"historyDepth"`
	Cache     struct {
		Map      tierResp `json:"map"`
		Artifact tierResp `json:"artifact"`
	} `json:"cache"`
}

type highlightResp struct {
	Column string
	Stats  struct {
		Count     int
		Mean, Std float64
	}
}

type jobResp struct {
	ID          string         `json:"id"`
	Status      string         `json:"status"`
	Meta        map[string]any `json:"meta"`
	CreatedAt   string         `json:"createdAt"`
	StartedAt   string         `json:"startedAt"`
	FinishedAt  string         `json:"finishedAt"`
	QueueWaitMs float64        `json:"queueWaitMs"`
	RunMs       float64        `json:"runMs"`
}

// leaf is a zoomable region of a map.
type leaf struct {
	path  []int
	count int
}

// leaves lists the map's leaf regions, largest first (ties in path
// order), so "the largest region" is a property of the map alone.
func (m *mapResp) leaves() []leaf {
	var out []leaf
	var walk func(r *regionResp)
	walk = func(r *regionResp) {
		if len(r.Children) == 0 {
			out = append(out, leaf{path: r.Path, count: r.Count})
			return
		}
		for i := range r.Children {
			walk(&r.Children[i])
		}
	}
	walk(&m.Root)
	sort.SliceStable(out, func(a, b int) bool { return out[a].count > out[b].count })
	return out
}

func pathParam(path []int) string {
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// frame is what a rollback must restore.
type frame struct{ rows, depth int }

// nav is one session as its analyst sees it: the current state, the
// stack of states a rollback must restore, and a digest of everything
// the server said since the digest was last taken.
type nav struct {
	c     *client
	id    string
	cur   stateResp
	stack []frame
	sum   hash.Hash64
}

func newNav(c *client) *nav { return &nav{c: c, sum: fnv.New64a()} }

// takeDigest returns the digest of the responses since the last call.
func (n *nav) takeDigest() uint64 {
	d := n.sum.Sum64()
	n.sum.Reset()
	return d
}

// clicked is when a click ran and where its spans hang.
type clicked struct {
	t0, t1      time.Time
	trace, root int
}

// request performs one click: it times the request, checks the status
// and books latency and size. data is nil when the click failed. The
// caller books the outcome with n.c.rec.done once its own checks have
// run.
func (n *nav) request(route, method, path string, body any, problems *[]string) (data []byte, at clicked) {
	at.t0 = time.Now()
	status, data, err := n.c.do(method, path, body)
	at.t1 = time.Now()
	at.trace, at.root = n.c.rec.click(route, at.t0, at.t1, len(data))
	switch {
	case err != nil:
		*problems = append(*problems, err.Error())
		return nil, at
	case status < 200 || status > 299:
		*problems = append(*problems, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(data)))
		return nil, at
	}
	return data, at
}

// readState decodes a state response, checks its map and folds the
// response into the digest without the parts that legitimately differ
// between identical rounds: the session ID up front and the scheduler
// and cache blocks at the end (field order is the server's struct
// order).
func (n *nav) readState(data []byte, problems *[]string) bool {
	var st stateResp
	if err := json.Unmarshal(data, &st); err != nil {
		*problems = append(*problems, "bad state JSON: "+err.Error())
		return false
	}
	lo := bytes.Index(data, []byte(`"rows":`))
	hi := bytes.LastIndex(data, []byte(`,"scheduler":`))
	if lo < 0 || hi < lo {
		*problems = append(*problems, "state JSON lacks rows/scheduler")
		return false
	}
	_, _ = n.sum.Write(data[lo:hi]) // hash.Hash never fails
	if m := st.Map; m != nil {
		if m.K < 2 || m.K > 6 {
			*problems = append(*problems, fmt.Sprintf("map k=%d outside [2,6]", m.K))
		}
		total := 0
		for _, ch := range m.Root.Children {
			total += ch.Count
		}
		if total != st.Rows {
			*problems = append(*problems, fmt.Sprintf("root children hold %d rows, state has %d", total, st.Rows))
		}
	}
	n.cur = st
	return true
}

func (n *nav) sessionPath(suffix string) string { return "/api/sessions/" + n.id + suffix }

// open starts a session (tenant may be empty).
func (n *nav) open(tenant string) bool {
	var problems []string
	body := map[string]string{"dataset": datasetName}
	if tenant != "" {
		body["tenant"] = tenant
	}
	data, _ := n.request("open", http.MethodPost, "/api/sessions", body, &problems)
	ok := data != nil && n.readState(data, &problems)
	if ok {
		n.id = n.cur.SessionID
		n.stack = []frame{{n.cur.Rows, n.cur.Depth}}
	}
	n.c.rec.done("open", problems)
	return ok && len(problems) == 0
}

// build clicks select, zoom or project. A revisit is a build the map
// cache must serve: the map tier's hits rise by exactly one; on any
// other build they must not move.
func (n *nav) build(kind string, body any, revisit bool) bool {
	route := kind
	if revisit {
		route = "revisit"
	}
	var problems []string
	hitsBefore := n.cur.Cache.Map.Hits
	data, at := n.request(route, http.MethodPost, n.sessionPath("/"+kind), body, &problems)
	ok := data != nil && n.readState(data, &problems)
	if ok {
		n.stack = append(n.stack, frame{n.cur.Rows, n.cur.Depth})
		want := hitsBefore
		if revisit {
			want++
		}
		if got := n.cur.Cache.Map.Hits; got != want {
			problems = append(problems, fmt.Sprintf("map-tier hits %d, want %d", got, want))
		}
		if n.cur.Map == nil {
			problems = append(problems, "build returned no map")
		}
	}
	n.c.rec.done(route, problems)
	if ok && n.c.rec.traced {
		n.fetchBuildTrace(route, at)
	}
	return ok && len(problems) == 0
}

func (n *nav) selectTheme(theme int) bool {
	return n.build("select", map[string]int{"theme": theme}, false)
}

func (n *nav) project(theme int, revisit bool) bool {
	return n.build("project", map[string]int{"theme": theme}, revisit)
}

func (n *nav) zoom(path []int, revisit bool) bool {
	return n.build("zoom", map[string][]int{"path": path}, revisit)
}

// filter narrows the selection with an explicit predicate.
func (n *nav) filter(expr string) bool {
	var problems []string
	rowsBefore := n.cur.Rows
	data, _ := n.request("filter", http.MethodPost, n.sessionPath("/filter"), map[string]string{"expr": expr}, &problems)
	ok := data != nil && n.readState(data, &problems)
	if ok {
		n.stack = append(n.stack, frame{n.cur.Rows, n.cur.Depth})
		if n.cur.Rows <= 0 || n.cur.Rows > rowsBefore {
			problems = append(problems, fmt.Sprintf("filter left %d of %d rows", n.cur.Rows, rowsBefore))
		}
	}
	n.c.rec.done("filter", problems)
	return ok && len(problems) == 0
}

// rollback must restore the rows and history depth of the state below.
func (n *nav) rollback() bool {
	var problems []string
	data, _ := n.request("rollback", http.MethodPost, n.sessionPath("/rollback"), nil, &problems)
	ok := data != nil && n.readState(data, &problems)
	if ok {
		if len(n.stack) < 2 {
			problems = append(problems, "rollback below the initial state")
		} else {
			n.stack = n.stack[:len(n.stack)-1]
			if want := n.stack[len(n.stack)-1]; n.cur.Rows != want.rows || n.cur.Depth != want.depth {
				problems = append(problems, fmt.Sprintf("rollback gave rows=%d depth=%d, want rows=%d depth=%d",
					n.cur.Rows, n.cur.Depth, want.rows, want.depth))
			}
		}
	}
	n.c.rec.done("rollback", problems)
	return ok && len(problems) == 0
}

// state re-reads the current state; nothing may have moved.
func (n *nav) state() bool {
	var problems []string
	data, _ := n.request("state", http.MethodGet, n.sessionPath(""), nil, &problems)
	ok := data != nil && n.readState(data, &problems)
	if ok {
		if want := n.stack[len(n.stack)-1]; n.cur.Rows != want.rows || n.cur.Depth != want.depth {
			problems = append(problems, fmt.Sprintf("state moved to rows=%d depth=%d", n.cur.Rows, n.cur.Depth))
		}
	}
	n.c.rec.done("state", problems)
	return ok && len(problems) == 0
}

// highlight inspects a column inside a region of the current map.
func (n *nav) highlight(column string, path []int) (highlightResp, bool) {
	var problems []string
	var h highlightResp
	q := url.Values{"column": {column}, "path": {pathParam(path)}}
	data, _ := n.request("highlight", http.MethodGet, n.sessionPath("/highlight?"+q.Encode()), nil, &problems)
	if data != nil {
		_, _ = n.sum.Write(data)
		if err := json.Unmarshal(data, &h); err != nil {
			problems = append(problems, "bad highlight JSON: "+err.Error())
		} else if h.Column != column || h.Stats.Count <= 0 {
			problems = append(problems, fmt.Sprintf("highlight of %s covers %d values of %q", column, h.Stats.Count, h.Column))
		}
	}
	n.c.rec.done("highlight", problems)
	return h, len(problems) == 0
}

// svg fetches the rendered map.
func (n *nav) svg() bool {
	var problems []string
	data, _ := n.request("svg", http.MethodGet, n.sessionPath("/map.svg"), nil, &problems)
	if data != nil {
		_, _ = n.sum.Write(data)
		if !bytes.HasPrefix(data, []byte("<svg")) {
			problems = append(problems, "map.svg is not an SVG document")
		}
	}
	n.c.rec.done("svg", problems)
	return len(problems) == 0
}

// closeSession deletes the session.
func (n *nav) closeSession() bool {
	var problems []string
	n.request("close", http.MethodDelete, n.sessionPath(""), nil, &problems)
	n.c.rec.done("close", problems)
	return len(problems) == 0
}

// fetchBuildTrace is the instrumentation only a traced run pays: after
// a build click it reads the session's newest job and that job's trace,
// and hangs the scheduler and core-stage spans under the click's span.
func (n *nav) fetchBuildTrace(route string, at clicked) {
	rec := n.c.rec
	var problems []string
	var jobs []jobResp
	status, data, err := n.c.do(http.MethodGet, n.sessionPath("/jobs"), nil)
	if err != nil || status != http.StatusOK {
		problems = append(problems, fmt.Sprintf("job list: status %d err %v", status, err))
	} else if err := json.Unmarshal(data, &jobs); err != nil || len(jobs) == 0 {
		problems = append(problems, fmt.Sprintf("job list: %d jobs, err %v", len(jobs), err))
	}
	rec.done("trace.jobs", problems)
	if len(problems) > 0 {
		return
	}
	job := jobs[len(jobs)-1]

	problems = nil
	var snap obs.TraceSnapshot
	status, data, err = n.c.do(http.MethodGet, n.sessionPath("/jobs/"+job.ID+"/trace"), nil)
	if err != nil || status != http.StatusOK {
		problems = append(problems, fmt.Sprintf("job trace: status %d err %v", status, err))
	} else if err := json.Unmarshal(data, &snap); err != nil {
		problems = append(problems, "job trace: "+err.Error())
	}
	if job.Status != "done" {
		problems = append(problems, "job "+job.ID+" is "+job.Status)
	}
	rec.done("trace.spans", problems)
	if len(problems) > 0 {
		return
	}

	reuse, _ := job.Meta["reuse"].(string)
	b := buildRec{
		route:    route,
		clientMs: float64(at.t1.Sub(at.t0)) / float64(time.Millisecond),
		queueMs:  job.QueueWaitMs,
		runMs:    job.RunMs,
		reuse:    reuse,
		trace:    snap,
	}
	created, err1 := time.Parse(time.RFC3339Nano, job.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, job.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, job.FinishedAt)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.builds = append(rec.builds, b)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	rec.addSpanLocked(at.trace, at.root, "jobs.queue_wait", rec.sinceStartMs(created), rec.sinceStartMs(started))
	run := rec.addSpanLocked(at.trace, at.root, "jobs.run", rec.sinceStartMs(started), rec.sinceStartMs(finished))
	// The trace opens when the job function starts, which is when the
	// scheduler stamps startedAt.
	base := rec.sinceStartMs(started)
	for _, sp := range snap.Spans {
		rec.addSpanLocked(at.trace, run, "core."+sp.Name, base+sp.StartMs, base+sp.StartMs+sp.DurationMs)
	}
}
