package session

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// The action kinds a job can carry — the map-building navigational
// actions. Cheap actions (rollback, state reads, highlights) stay
// synchronous on the session lock.
const (
	ActionZoom    = "zoom"
	ActionSelect  = "select"
	ActionProject = "project"
	ActionFilter  = "filter"
)

// Action describes one map-build request against a session — the wire
// shape of POST /api/sessions/{id}/jobs, and, without the kind, the
// body of the synchronous route named after it. Path is used by zoom,
// Theme by select and project, Expr by filter.
type Action struct {
	Kind  string `json:"action"`
	Path  []int  `json:"path,omitempty"`
	Theme int    `json:"theme,omitempty"`
	Expr  string `json:"expr,omitempty"`
	// DeadlineMS, when positive, gives the job a queue deadline that many
	// milliseconds from submission: if no worker has picked it up by
	// then, the scheduler sheds it (jobs.StatusShed) instead of building
	// a map nobody is waiting for.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// Deadline is the absolute form of DeadlineMS (it wins when both are
	// set). The server fills it from the request context on synchronous
	// submit-and-wait endpoints, so a client timeout sheds the queued
	// build. Not part of the wire shape.
	Deadline time.Time `json:"-"`
}

// deadline resolves the action's queue deadline (zero = none).
func (a Action) deadline() time.Time {
	if !a.Deadline.IsZero() {
		return a.Deadline
	}
	if a.DeadlineMS > 0 {
		return time.Now().Add(time.Duration(a.DeadlineMS) * time.Millisecond)
	}
	return time.Time{}
}

// Submit schedules the action as a job on the manager's pool and returns
// its handle immediately, failing when the session is no longer
// registered. The membership check and the enqueue happen under the
// registry lock, so Submit cannot race Close into queueing work for a
// closed session — either the submit loses and errors, or it wins and
// Close's CancelSession cancels the fresh job. Under overload the
// scheduler refuses the submission with jobs.ErrQueueFull (match with
// errors.Is), which the HTTP tier maps to 429.
func (m *Manager) Submit(id string, act Action) (*jobs.Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("session: no session %q", id)
	}
	return m.enqueue(s, act)
}

// poolStatser is the store-layer capability the page-read accounting
// asserts for (store.SegmentTable has it; in-memory tables do not).
type poolStatser interface {
	PoolStats() segment.PoolStats
}

// enqueue queues the action's build job. The job follows core.MapBuild's
// three-step protocol: prepare under the session lock (validation, row
// snapshot, zoom-cache lookup — microseconds, plus, for a filter, the
// scan that produces its rows), build on the worker with
// the lock released (the expensive clustering, reporting progress
// fractions and honouring cancellation), then apply under the lock (one
// state push). The pool runs one job per session at a time in submit
// order, which is what makes the detached build safe; a rollback racing
// in between surfaces as a "state changed" job failure, never as
// corrupted history.
//
// Jobs resolved by the zoom cache report {"cacheHit": true} in their
// metadata and complete without rebuilding oracle, clustering or tree.
// Every build job additionally reports its reuse level ({"reuse":
// "mapHit" | "oracleDerived" | "cold"}, see core.ReuseLevel): whether it
// was served from the map cache, rebuilt over a sample and vectors
// derived from a cached parent's, or built entirely from scratch.
//
// The job function records an obs.Trace (stage spans, distance-evaluation
// and page-read counters, the reuse tier) retrievable through the job
// handle, feeds the telemetry plane's build histograms, and emits the
// slow-build log.
func (m *Manager) enqueue(s *Session, act Action) (*jobs.Job, error) {
	switch act.Kind {
	case ActionZoom, ActionSelect, ActionProject, ActionFilter:
	default:
		return nil, fmt.Errorf("session: unknown action %q (want %s, %s, %s or %s)",
			act.Kind, ActionZoom, ActionSelect, ActionProject, ActionFilter)
	}
	tel := m.tel
	return m.pool.Submit(s.ID, s.Tenant, act.Kind, func(ctx context.Context, j *jobs.Job) (any, error) {
		tr := obs.NewTrace(tel.Time())
		tr.SetAttr("action", act.Kind)
		j.SetTrace(tr)
		ctx = obs.WithTrace(ctx, tr)
		// Page-read accounting is a before/after delta of the shared
		// buffer pool's counters: approximate under concurrent builds
		// (another session's scan lands in the same pool), but free —
		// no per-read hook threads through the store layer.
		var pages poolStatser
		var before segment.PoolStats
		s.mu.Lock()
		pages, _ = s.Explorer.Table().(poolStatser)
		s.mu.Unlock()
		if pages != nil {
			before = pages.PoolStats()
		}

		res, err := s.runBuild(ctx, j, act)

		if pages != nil {
			after := pages.PoolStats()
			if d := (after.Hits + after.Misses) - (before.Hits + before.Misses); d > 0 {
				tr.Int("pageReads").Add(int64(d))
				tr.Int("pagePoolHits").Add(int64(after.Hits - before.Hits))
			}
		}
		tr.Finish()
		recordBuild(tel, j, tr, act.Kind, err)
		return res, err
	}, jobs.SubmitOptions{Deadline: act.deadline()})
}

// runBuild is the prepare → run → apply job body (see Submit's doc
// comment for the protocol).
func (s *Session) runBuild(ctx context.Context, j *jobs.Job, act Action) (any, error) {
	var build *core.MapBuild
	if err := s.Do(func(e *core.Explorer) error {
		var err error
		switch act.Kind {
		case ActionZoom:
			build, err = e.PrepareZoom(act.Path...)
		case ActionSelect:
			build, err = e.PrepareSelect(act.Theme)
		case ActionProject:
			build, err = e.PrepareProject(act.Theme)
		default:
			var pred store.Predicate
			if pred, err = store.ParsePredicate(act.Expr); err == nil {
				build, err = e.PrepareFilter(pred)
			}
		}
		return err
	}); err != nil {
		return nil, err
	}
	if build.Cached() {
		j.SetMeta("cacheHit", true)
	}
	m, err := build.Run(ctx, j.SetProgress)
	if err != nil {
		return nil, err
	}
	// After Run, not before: a derived build that hits a degenerate
	// overlap demotes itself to cold mid-run.
	j.SetMeta("reuse", string(build.Reuse()))
	// A cancellation that lands after the last in-build checkpoint
	// must still win: a cancelled job never applies its result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.Do(func(e *core.Explorer) error { return e.ApplyBuild(build, m) }); err != nil {
		return nil, err
	}
	// The map itself is served by the state endpoints; the job keeps
	// only a compact summary, so the pool's retained-job window never
	// pins whole region trees in memory.
	res := map[string]any{"rows": build.Rows()}
	if m != nil { // nil for a filter before any theme was selected
		res["k"], res["sampleSize"] = m.K, m.SampleSize
	}
	return res, nil
}

// recordBuild feeds the finished trace into the metrics registry (stage
// and end-to-end histograms) and the slow-build log.
func recordBuild(tel *obs.Telemetry, j *jobs.Job, tr *obs.Trace, kind string, err error) {
	snap := tr.Snapshot()
	reuse := snap.Attrs["reuse"]
	if reuse == "" {
		reuse = "unknown" // the build failed before resolving its reuse tier
	}
	reg := tel.Reg()
	for _, sp := range snap.Spans {
		reg.Histogram("blaeu_build_stage_seconds",
			"Build pipeline stage durations.", nil,
			obs.Labels{"stage": sp.Name}).Observe(sp.DurationMs / 1e3)
	}
	reg.Histogram("blaeu_build_seconds",
		"End-to-end build durations by action and reuse tier.", nil,
		obs.Labels{"action": kind, "reuse": reuse}).Observe(snap.TotalMs / 1e3)

	thr := tel.SlowBuildThreshold()
	if thr <= 0 || snap.TotalMs < thr.Seconds()*1e3 {
		return
	}
	attrs := []any{
		"job", j.ID(), "session", j.Session(),
		"action", kind, "reuse", reuse, "totalMs", snap.TotalMs,
	}
	for _, sp := range snap.Spans {
		attrs = append(attrs, "stage."+sp.Name+"Ms", sp.DurationMs)
	}
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, k, snap.Counters[k])
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	tel.Log().Warn("slow build", attrs...)
}
