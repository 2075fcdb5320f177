package server

// The asynchronous job API — the HTTP face of internal/jobs:
//
//	POST   /api/sessions/{id}/jobs          submit a zoom/select/project/filter build; 202 + job info
//	GET    /api/sessions/{id}/jobs          list the session's known jobs
//	GET    /api/sessions/{id}/jobs/{jobID}  status, progress fraction, metadata
//	DELETE /api/sessions/{id}/jobs/{jobID}  cancel (queued: dropped; running: context cancelled)
//	GET    /api/jobs/stats                  scheduler snapshot (queue depths, per-tenant counters)
//
// The synchronous navigation endpoints (/select, /zoom, /project,
// /filter — one handler, handleAction) are submit-and-wait over the
// same scheduler (runAction), so async and sync
// requests share one execution path, one per-session FIFO and one
// fairness policy — including backpressure: when a queue cap is reached
// the scheduler refuses the submission and both paths answer 429 Too
// Many Requests with a Retry-After header instead of queueing
// unboundedly. Submissions may carry {"deadlineMs": N}; sync requests
// inherit their deadline from the request context, so a client that
// gave up sheds its queued build instead of computing a map for nobody.

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/session"
)

// retryAfterSeconds is the Retry-After hint sent with 429 responses. The
// queue drains at worker speed; one second is long enough to shed a
// burst and short enough to keep interactive clients responsive.
const retryAfterSeconds = "1"

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var act session.Action
	if !decodeBody(w, r, &act) {
		return
	}
	job, err := s.manager.Submit(sess.ID, act)
	if err != nil {
		s.writeSubmitErr(w, sess, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Info())
}

// writeSubmitErr maps a submit error onto the wire: 429 with Retry-After
// when the scheduler refused for backpressure (a queue cap was reached),
// 404 when the session vanished mid-request, 400 otherwise (a
// session.ErrBadAction, or an action Prepare refused).
func (s *Server) writeSubmitErr(w http.ResponseWriter, sess *session.Session, err error) {
	if errors.Is(err, jobs.ErrQueueFull) {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	if _, gerr := s.manager.Get(sess.ID); gerr != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// sessionJob resolves {jobID} within {id}, 404ing jobs that do not exist
// or belong to another session.
func (s *Server) sessionJob(w http.ResponseWriter, r *http.Request) *jobs.Job {
	sess := s.session(w, r)
	if sess == nil {
		return nil
	}
	jobID := r.PathValue("jobID")
	job, ok := s.manager.Pool().Get(jobID)
	if !ok || job.Session() != sess.ID {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q in session %s", jobID, sess.ID))
		return nil
	}
	return job
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if job := s.sessionJob(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Info())
	}
}

// handleJobCancel cancels a job. DELETE is idempotent: cancelling a job
// that is already terminal (done, failed, cancelled or shed) is a no-op
// answered 200 with the job's unchanged final status, so clients can
// retry a cancel — or race one against completion — without special
// cases.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := s.sessionJob(w, r)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Info())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	infos := []jobs.Info{}
	for _, j := range s.manager.Pool().SessionJobs(sess.ID) {
		infos = append(infos, j.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleJobStats serves the scheduler snapshot: queue depths, running
// jobs, configured caps, shed/rejected counters and the per-tenant
// breakdown — the observability face of the backpressure layer.
func (s *Server) handleJobStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Pool().Stats())
}

// cacheStatsJSON is the wire shape of GET /api/cache/stats: the
// reuse-cache counters of every open session plus their sum — the
// jobs/stats counterpart for the build cache.
type cacheStatsJSON struct {
	Sessions map[string]core.ReuseStats `json:"sessions"`
	Totals   core.ReuseStats            `json:"totals"`
}

// collectCacheStats sums the reuse-cache counters of every open
// session. Sessions closed between the listing and the read are
// skipped. Shared by the /api/cache/stats handler and the /metrics
// cache-gauge collector, so both report the same numbers.
func (s *Server) collectCacheStats() cacheStatsJSON {
	out := cacheStatsJSON{Sessions: make(map[string]core.ReuseStats)}
	for _, id := range s.manager.List() {
		sess, err := s.manager.Get(id)
		if err != nil {
			continue
		}
		var rs core.ReuseStats
		_ = sess.Do(func(e *core.Explorer) error {
			rs = e.ReuseStats()
			return nil
		})
		out.Sessions[id] = rs
		sum := &out.Totals.Map
		sum.Hits += rs.Map.Hits
		sum.Misses += rs.Map.Misses
		sum.Entries += rs.Map.Entries
		sum.Capacity += rs.Map.Capacity
		sum.Evictions += rs.Map.Evictions
	}
	return out
}

// handleCacheStats serves the per-session and aggregate reuse-cache
// counters: hits, misses, occupancy and evictions.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.collectCacheStats())
}

// runAction is the synchronous navigation path: submit the action to the
// scheduler and wait for it, so synchronous and asynchronous requests
// are scheduled identically. The request context's deadline becomes the
// job's queue deadline — a request that would time out while its build
// is still queued is shed instead of computed — and if the client goes
// away mid-build the job is cancelled rather than left computing for
// nobody.
func (s *Server) runAction(w http.ResponseWriter, r *http.Request, sess *session.Session, act session.Action) {
	if dl, ok := r.Context().Deadline(); ok && act.Deadline.IsZero() {
		act.Deadline = dl
	}
	job, err := s.manager.Submit(sess.ID, act)
	if err != nil {
		s.writeSubmitErr(w, sess, err)
		return
	}
	if err := job.Wait(r.Context()); err != nil {
		job.Cancel()
		status := http.StatusBadRequest
		if job.Status() == jobs.StatusShed {
			// The scheduler shed the queued build past its deadline:
			// overload, not a bad request.
			w.Header().Set("Retry-After", retryAfterSeconds)
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, s.stateJSON(sess))
}
