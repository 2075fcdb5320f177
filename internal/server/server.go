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
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
	datasets map[string]store.Relation
	opts     core.Options
}

// Manager aliases the session registry (kept narrow for testability).
type Manager = session.Manager

// NewWith builds a server over a registry of named datasets. opts
// configures every explorer the server opens. m is the session manager
// whose scheduler carries the deployment's backpressure policy (queue
// caps, tenant weights, in-flight quotas — see session.NewManagerObs);
// nil means a default manager without backpressure limits.
func NewWith(datasets map[string]store.Relation, opts core.Options, m *Manager) *Server {
	if m == nil {
		m = session.NewManagerObs(jobs.Config{}, nil)
	}
	s := &Server{
		manager:  m,
		mux:      http.NewServeMux(),
		datasets: datasets,
		opts:     opts,
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /api/sessions", s.handleOpen)
	s.mux.HandleFunc("GET /api/sessions/{id}", s.handleState)
	s.mux.HandleFunc("DELETE /api/sessions/{id}", s.handleClose)
	for _, kind := range []string{session.ActionSelect, session.ActionZoom, session.ActionProject, session.ActionFilter} {
		s.mux.HandleFunc("POST /api/sessions/{id}/"+kind, s.handleAction(kind))
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
	for _, r := range s.datasets {
		if t, ok := r.(setter); ok {
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

type themeJSON struct {
	ID       int      `json:"id"`
	Label    string   `json:"label"`
	Medoid   string   `json:"medoid"`
	Columns  []string `json:"columns"`
	Cohesion float64  `json:"cohesion"`
}

type regionJSON struct {
	Path       []int        `json:"path"`
	Condition  string       `json:"condition"`
	Count      int          `json:"count"`
	ClusterID  int          `json:"clusterId"`
	Silhouette *float64     `json:"silhouette,omitempty"`
	Split      string       `json:"split,omitempty"`
	Children   []regionJSON `json:"children,omitempty"`
}

type mapJSON struct {
	ThemeID      int        `json:"themeId"`
	ThemeLabel   string     `json:"themeLabel"`
	K            int        `json:"k"`
	Silhouette   float64    `json:"silhouette"`
	TreeAccuracy float64    `json:"treeAccuracy"`
	SampleSize   int        `json:"sampleSize"`
	Root         regionJSON `json:"root"`
}

type stateJSON struct {
	SessionID string      `json:"sessionId"`
	Rows      int         `json:"rows"`
	Query     string      `json:"query"`
	Action    string      `json:"action"`
	Detail    string      `json:"detail"`
	Themes    []themeJSON `json:"themes"`
	Map       *mapJSON    `json:"map,omitempty"`
	Depth     int         `json:"historyDepth"`
	// Jobs lists the session's in-flight (queued or running)
	// asynchronous builds, so clients polling state see what is coming.
	Jobs []jobs.Info `json:"jobs,omitempty"`
	// Scheduler is the scheduler's view of this session: tenant, queue
	// depth against the per-session cap, running job count.
	Scheduler jobs.SessionStats `json:"scheduler"`
	// Cache is the session's reuse-cache breakdown (hits, misses and
	// the derivations among them, occupancy, evictions), so build reuse
	// is observable over the wire.
	Cache core.ReuseStats `json:"cache"`
}

// clusterOptionsJSON is the optional options block of the open request:
// a per-session override of the server-wide cache size. An empty field
// keeps the server default; unknown keys are rejected, so a misspelt or
// retired option (algorithm, seeding, oracle — the engine chooses those
// itself — and artifactCacheSize, whose cache merged into the map
// cache) is a 400 rather than a silently ignored one.
type clusterOptionsJSON struct {
	// MapCacheSize bounds the session's reuse cache (entries). Omitted
	// or 0 keeps the server default; -1 disables the cache; larger
	// values are capped by validation (the cache pins maps and sample
	// vectors in server memory).
	MapCacheSize *int `json:"mapCacheSize"`
}

// UnmarshalJSON decodes the block strictly.
func (c *clusterOptionsJSON) UnmarshalJSON(b []byte) error {
	type plain clusterOptionsJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode((*plain)(c))
}

// maxCacheEntries bounds the per-session cache size a client may
// request: beyond it the cache stops being a working set and starts
// being a memory grab (each cold entry pins a sample's fitted vectors).
const maxCacheEntries = 1024

// apply validates the override and writes it into opts.
func (c *clusterOptionsJSON) apply(opts *core.Options) error {
	if c.MapCacheSize == nil {
		return nil
	}
	if v := *c.MapCacheSize; v < -1 || v > maxCacheEntries {
		return fmt.Errorf("mapCacheSize must be between -1 (disabled) and %d entries, got %d", maxCacheEntries, v)
	}
	if *c.MapCacheSize != 0 {
		opts.MapCacheSize = *c.MapCacheSize
	}
	return nil
}

func themeToJSON(t core.Theme) themeJSON {
	return themeJSON{ID: t.ID, Label: t.Label(), Medoid: t.Medoid, Columns: t.Columns, Cohesion: t.Cohesion}
}

func regionToJSON(r *core.Region) regionJSON {
	out := regionJSON{
		Path:      r.Path,
		Condition: r.Describe(),
		Count:     r.Count(),
		ClusterID: r.ClusterID,
	}
	if !math.IsNaN(r.Silhouette) {
		v := r.Silhouette
		out.Silhouette = &v
	}
	if r.Split != nil {
		out.Split = r.Split.String()
	}
	for _, c := range r.Children {
		out.Children = append(out.Children, regionToJSON(c))
	}
	return out
}

func mapToJSON(m *core.Map) *mapJSON {
	if m == nil {
		return nil
	}
	return &mapJSON{
		ThemeID:      m.Theme.ID,
		ThemeLabel:   m.Theme.Label(),
		K:            m.K,
		Silhouette:   m.Silhouette,
		TreeAccuracy: m.TreeAccuracy,
		SampleSize:   m.SampleSize,
		Root:         regionToJSON(m.Root),
	}
}

func (s *Server) stateJSON(sess *session.Session) stateJSON {
	var out stateJSON
	_ = sess.Do(func(e *core.Explorer) error {
		st := e.State()
		out = stateJSON{
			SessionID: sess.ID,
			Rows:      st.Rows.Len(),
			Query:     e.Query(),
			Action:    string(st.Action),
			Detail:    st.Detail,
			Map:       mapToJSON(st.Map),
			Depth:     len(e.History()),
			Cache:     e.ReuseStats(),
		}
		for _, t := range e.Themes() {
			out.Themes = append(out.Themes, themeToJSON(t))
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
	for name, t := range s.datasets {
		out = append(out, ds{Name: name, Rows: t.NumRows(), Cols: t.NumCols()})
	}
	// Sorted by name: ranging over the dataset map would otherwise leak
	// map iteration order into the payload, so the same server would
	// answer the same request with differently ordered JSON run to run.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset string              `json:"dataset"`
		Options *clusterOptionsJSON `json:"options"`
		// Tenant groups the session for scheduling: weighted fairness,
		// in-flight quotas and per-tenant accounting apply to all of a
		// tenant's sessions together. Empty = the session stands alone.
		// The label is client-asserted — this server has no auth layer —
		// so weights/quotas keyed on it isolate cooperative workloads,
		// not adversaries; deployments that must enforce isolation should
		// derive the tenant server-side (reverse proxy, or the
		// authenticated identity passed as Manager.Open's tenant
		// argument) instead of trusting this field.
		Tenant string `json:"tenant"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	t, ok := s.datasets[req.Dataset]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no dataset %q", req.Dataset))
		return
	}
	opts := s.opts
	if req.Options != nil {
		if err := req.Options.apply(&opts); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	sess, err := s.manager.Open(t, opts, req.Tenant)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.stateJSON(sess))
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
func (s *Server) handleAction(kind string) http.HandlerFunc {
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
	path, err := parsePath(r.URL.Query().Get("path"))
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
	path, err := parsePath(q.Get("path"))
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

func parsePath(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad path element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
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
