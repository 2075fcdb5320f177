// Package server exposes Blaeu over HTTP — the reproduction of the
// paper's web architecture (Fig. 4): the store plays MonetDB, core plays
// the R mapping engine, session plays the NodeJS session manager, and
// this package relays themes, maps and actions to a browser client as
// JSON and SVG.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/store"
)

// Server is the Blaeu HTTP front end.
type Server struct {
	manager  *Manager
	mux      *http.ServeMux
	datasets map[string]*dataset
	opts     core.Options
}

// dataset is one entry of the server's dataset table: a relation and
// the core.Dataset its first open detects with the server's options,
// shared by every session on it.
type dataset struct {
	rel store.Relation

	mu       sync.Mutex
	detected *core.Dataset // nil until a detection succeeds
	busy     chan struct{} // closed when the detection in flight ends
}

// open returns the shared core.Dataset, detecting it on the first call.
// Concurrent first opens wait for that one detection, with no lock held.
// A detection that fails or panics is not kept, so the next open retries
// it: one failed page read does not poison the dataset for good.
func (ds *dataset) open(opts core.Options) (d *core.Dataset, err error) {
	for {
		ds.mu.Lock()
		done, busy := ds.detected, ds.busy
		if done == nil && busy == nil {
			ds.busy = make(chan struct{})
		}
		ds.mu.Unlock()
		if done != nil {
			return done, nil
		}
		if busy == nil {
			break
		}
		<-busy
	}
	defer func() {
		ds.mu.Lock()
		close(ds.busy)
		ds.detected, ds.busy = d, nil
		ds.mu.Unlock()
	}()
	return core.NewDataset(ds.rel, opts)
}

// Manager aliases the session registry (kept narrow for testability).
type Manager = session.Manager

// NewWith builds a server over a registry of named datasets. opts are
// the engine options each dataset is detected with on its first open,
// and every session on it shares them. m is the session manager
// whose scheduler carries the deployment's backpressure policy (queue
// caps — see session.NewManagerObs);
// nil means a default manager without backpressure limits.
func NewWith(datasets map[string]store.Relation, opts core.Options, m *Manager) *Server {
	if m == nil {
		m = session.NewManagerObs(jobs.Config{}, nil)
	}
	s := &Server{
		manager:  m,
		mux:      http.NewServeMux(),
		datasets: make(map[string]*dataset, len(datasets)),
		opts:     opts,
	}
	for name, rel := range datasets {
		s.datasets[name] = &dataset{rel: rel}
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /api/sessions", s.handleOpen)
	s.mux.HandleFunc("GET /api/sessions/{id}", s.handleState)
	s.mux.HandleFunc("DELETE /api/sessions/{id}", s.handleClose)
	for _, kind := range core.BuildKinds() {
		s.mux.HandleFunc("POST /api/sessions/{id}/"+string(kind), s.handleAction(kind))
	}
	s.mux.HandleFunc("POST /api/sessions/{id}/rollback", s.handleRollback)
	s.mux.HandleFunc("GET /api/jobs/stats", s.handleJobStats)
	s.mux.HandleFunc("GET /api/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /api/sessions/{id}/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /api/sessions/{id}/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /api/sessions/{id}/jobs/{jobID}", s.handleJobGet)
	s.mux.HandleFunc("GET /api/sessions/{id}/jobs/{jobID}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /api/sessions/{id}/jobs/{jobID}", s.handleJobCancel)
	s.mux.HandleFunc("GET /api/sessions/{id}/highlight", s.handleHighlight)
	s.mux.HandleFunc("GET /api/sessions/{id}/scatter", s.handleScatter)
	s.mux.HandleFunc("POST /api/sessions/{id}/annotate", s.handleAnnotate)
	s.mux.HandleFunc("GET /api/sessions/{id}/map.svg", s.handleMapSVG)
	s.mux.HandleFunc("GET /api/sessions/{id}/export", s.handleExport)
	s.registerCacheGauges()
	s.attachScanMetrics()
	return s
}

// attachScanMetrics registers the scan counters against the manager's
// registry and attaches them to every dataset, so scans run by
// explorers (selection filters) surface on /metrics.
func (s *Server) attachScanMetrics() {
	sm := store.NewScanMetrics(s.manager.Telemetry().Reg())
	type setter interface{ SetScanMetrics(*store.ScanMetrics) }
	for _, ds := range s.datasets {
		if t, ok := ds.rel.(setter); ok {
			t.SetScanMetrics(sm)
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Manager exposes the session registry (and through it the job
// scheduler) so embedders can start the idle evictor or shut the
// scheduler down.
func (s *Server) Manager() *Manager { return s.manager }

// --- wire types ---

type stateJSON struct {
	SessionID string           `json:"sessionId"`
	Rows      int              `json:"rows"`
	Query     string           `json:"query"`
	Action    core.ActionKind  `json:"action"`
	Detail    string           `json:"detail"`
	Themes    []core.ThemeView `json:"themes"`
	Map       *core.MapView    `json:"map,omitempty"`
	Depth     int              `json:"historyDepth"`
	// Jobs lists the session's in-flight (queued or running)
	// asynchronous builds, so clients polling state see what is coming.
	Jobs []jobs.Info `json:"jobs,omitempty"`
	// Scheduler is the scheduler's view of this session: tenant, queue
	// depth against the per-session cap, running job count.
	Scheduler jobs.SessionStats `json:"scheduler"`
	// Cache is the session's reuse-cache breakdown (hits, misses,
	// occupancy, evictions), so build reuse is observable over the wire.
	Cache core.ReuseStats `json:"cache"`
}

func (s *Server) stateJSON(sess *session.Session) stateJSON {
	var out stateJSON
	_ = sess.Do(func(e *core.Explorer) error {
		st := e.State()
		out = stateJSON{
			SessionID: sess.ID,
			Rows:      st.Rows.Len(),
			Query:     e.Query(),
			Action:    st.Action.Kind,
			Detail:    st.Detail,
			Map:       st.MapView(),
			Depth:     len(e.History()),
			Cache:     e.ReuseStats(),
		}
		for _, t := range e.Themes() {
			out.Themes = append(out.Themes, t.View())
		}
		return nil
	})
	out.Jobs = s.manager.Pool().LiveJobs(sess.ID)
	out.Scheduler = s.manager.Pool().SessionStats(sess.ID)
	if out.Scheduler.Tenant == "" { // the pool has seen no submit of it yet
		out.Scheduler.Tenant = sess.Tenant
	}
	return out
}

// --- handlers ---

// jsonBufs recycles response buffers, so encoding before the status is
// committed costs no allocation per response.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before committing the status, so a value that
// cannot be encoded is a 500 with an error body instead of the intended
// status over an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a request body: the largest legitimate one is a
// filter expression or an annotation, kilobytes at most.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it. On failure it answers — 413 for an oversized
// body, 400 for anything else — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("bad request: %w", err))
	return false
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	type ds struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
		Cols int    `json:"cols"`
	}
	var out []ds
	for name, d := range s.datasets {
		out = append(out, ds{Name: name, Rows: d.rel.NumRows(), Cols: d.rel.NumCols()})
	}
	// Sorted by name: ranging over the dataset map would otherwise leak
	// map iteration order into the payload, so the same server would
	// answer the same request with differently ordered JSON run to run.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset string `json:"dataset"`
		// Options is the retired per-session override: every session
		// runs under the server's options (-map-cache sets the cache
		// size), and a request still carrying the block is refused
		// rather than silently ignored.
		Options json.RawMessage `json:"options"`
		// Tenant groups the session for scheduling: round-robin dispatch
		// and per-tenant accounting apply to all of a tenant's sessions
		// together. Empty = the session stands alone. The label is
		// client-asserted — this server has no auth layer — so a tenant
		// shares dispatch among cooperative workloads, not adversaries;
		// deployments that must enforce isolation should derive the
		// tenant server-side (reverse proxy, or the authenticated
		// identity passed as Manager.Open's tenant argument) instead of
		// trusting this field.
		Tenant string `json:"tenant"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Options != nil {
		writeErr(w, http.StatusBadRequest, errors.New("the open request takes no options block: every session runs under the server's options"))
		return
	}
	ds, ok := s.datasets[req.Dataset]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no dataset %q", req.Dataset))
		return
	}
	d, err := ds.open(s.opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.stateJSON(s.manager.Open(d, req.Tenant)))
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) *session.Session {
	sess, err := s.manager.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil
	}
	return sess
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, s.stateJSON(sess))
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.manager.Close(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// handleAction serves the synchronous navigation route of one action
// kind — select, zoom, project, filter. The body decodes straight into a
// session.Action, whose JSON keys (theme, path, expr) are the routes'
// bodies; the kind is the route's, whatever the body says.
func (s *Server) handleAction(kind core.ActionKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess := s.session(w, r)
		if sess == nil {
			return
		}
		var act session.Action
		if !decodeBody(w, r, &act) {
			return
		}
		act.Kind = kind
		s.runAction(w, r, sess, act)
	}
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := sess.Do(func(e *core.Explorer) error { return e.Rollback() }); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.stateJSON(sess))
}

func (s *Server) handleHighlight(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	column := r.URL.Query().Get("column")
	path, err := core.ParsePath(r.URL.Query().Get("path"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var h *core.Highlight
	if err := sess.Do(func(e *core.Explorer) error {
		var err error
		h, err = e.Highlight(column, path...)
		return err
	}); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	q := r.URL.Query()
	path, err := core.ParsePath(q.Get("path"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sd *core.ScatterData
	if err := sess.Do(func(e *core.Explorer) error {
		var err error
		sd, err = e.RegionScatter(q.Get("x"), q.Get("y"), path...)
		return err
	}); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sd)
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req struct {
		Path []int  `json:"path"`
		Text string `json:"text"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Text == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("empty annotation"))
		return
	}
	if err := sess.Do(func(e *core.Explorer) error {
		return e.Annotate(req.Text, req.Path...)
	}); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"annotated": true})
}

func (s *Server) handleMapSVG(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var svg string
	err := sess.Do(func(e *core.Explorer) error {
		m := e.CurrentMap()
		if m == nil {
			return fmt.Errorf("no active map")
		}
		svg = render.SVGMap(m, 720, 480)
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(svg))
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var snap *core.Snapshot
	_ = sess.Do(func(e *core.Explorer) error {
		snap = e.Snapshot()
		return nil
	})
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
