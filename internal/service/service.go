// Package service implements the fiserver HTTP API: asynchronous
// campaign-batch jobs (submit / status / result / cancel), streamed
// declarative experiments (the paper's figures among them), and
// scheduler statistics — all JSON over net/http, sharing one
// campaign.Scheduler so every client benefits from every other client's
// finished cells.
//
// Endpoints:
//
//	POST   /v1/jobs              submit a batch of cells; returns {id}
//	GET    /v1/jobs              list retained jobs, oldest first
//	GET    /v1/jobs/{id}         job status with per-cell states
//	GET    /v1/jobs/{id}/result  results (409 until the job is done)
//	DELETE /v1/jobs/{id}         cancel a running job, or delete a
//	                             finished one from the retained set
//	POST   /v1/experiments       run a declarative experiment spec,
//	                             streaming NDJSON progress + result
//	GET    /v1/stats             scheduler counters and store size
//	GET    /healthz              liveness probe
//
// With ServeWorkers enabled the server also speaks the pull-based remote
// worker protocol (see workers.go), distributing cells to a fiworker
// fleet under expiring leases instead of simulating them in-process.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/telemetry"
)

// maxRetainedJobs bounds the finished jobs kept for result retrieval;
// the oldest finished jobs are evicted first.
const maxRetainedJobs = 256

// maxRequestBody bounds the request bodies of POST /v1/jobs, POST
// /v1/experiments and the worker lease and complete calls. The largest
// legitimate bodies — one spec, a batch of thousands of cell specs, or a
// completed cell's aggregate counts — stay well under a MiB; a body past
// this bound answers 413 and is not read further.
const maxRequestBody = 8 << 20

// Server is the fiserver request handler. Create one with NewServer and
// mount it as an http.Handler. ServeWorkers adds the remote-worker lease
// protocol; Shutdown drains in-flight jobs.
type Server struct {
	sched *campaign.Scheduler
	mux   *http.ServeMux
	queue *campaign.LeaseQueue // non-nil once ServeWorkers ran
	log   *slog.Logger

	// auth, when non-nil, turns on multi-tenant mode: every control-plane
	// request must carry a known API key (see auth.go) and is accounted
	// and quota-checked under its tenant. quota tracks per-tenant usage
	// regardless (it is inert while auth is nil).
	auth  *KeySet
	quota *quotaTable

	// jstore, when non-nil, write-ahead journals every job transition so
	// the job table survives restart (see UseJobStore). Lock ordering:
	// jstore's mutex is strictly innermost — appends may happen while
	// holding s.mu or a job's mu, never the other way around.
	jstore *JobStore

	mu          sync.Mutex
	nextID      int
	jobs        map[string]*job
	order       []string // job ids in submission order, for eviction
	maxRetained int      // finished-job retention bound (maxRetainedJobs)
	closed      bool     // Shutdown called; no new jobs
	running     sync.WaitGroup
}

// job tracks one submitted batch or one streamed experiment run.
type job struct {
	id     string
	kind   string // "batch" or "experiment"
	cancel context.CancelFunc
	// tenant is the submitting tenant ("" on open servers); in
	// multi-tenant mode other tenants cannot see this job. quotaHeld
	// marks a reserved max-jobs slot, returned once when the job settles.
	tenant    string
	quotaHeld bool

	mu      sync.Mutex
	state   string // "running", "done", "failed", "canceled"
	done    int
	cells   []cellState
	results []*finject.Result
	// expResult is the finished experiment's result (kind "experiment").
	expResult *experiment.Result
	errMsg    string
}

// newJobID mints a job id; experiments and batches share one sequence
// but carry distinct prefixes so operators can tell them apart.
func newJobID(prefix string, n int) string {
	return fmt.Sprintf("%s-%06d", prefix, n)
}

// cellState is the per-cell view inside a job status.
type cellState struct {
	Spec   campaign.CellSpec `json:"spec"`
	State  string            `json:"state"` // "pending", "done", "failed"
	Cached bool              `json:"cached"`
	// Injections is the realized sample size; under an adaptive policy
	// it can stop below the cell's cap.
	Injections int    `json:"injections,omitempty"`
	Error      string `json:"error,omitempty"`
}

// jobPolicy is the wire form of the execution policy applied to every
// cell of a submitted batch: the engine's versioned Config. The field
// names match the historical ad-hoc policy block (margin, confidence,
// max_injections, checkpoint), so journals and clients written against
// it keep parsing; worker counts remain server-owned — the scheduler
// overwrites them per cell regardless of what a submitter sends. A nil
// checkpoint means each cell's own setting; the cell seed always comes
// from the spec, never the policy block.
type jobPolicy = finject.Config

// NewServer builds a Server around the scheduler.
func NewServer(sched *campaign.Scheduler) *Server {
	s := &Server{
		sched:       sched,
		mux:         http.NewServeMux(),
		jobs:        make(map[string]*job),
		maxRetained: maxRetainedJobs,
		quota:       newQuotaTable(),
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleResult)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("POST /v1/experiments", s.handleExperiment)
	s.handle("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", telemetry.Handler())
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// handle registers a route with per-route request/latency metrics. The
// pattern doubles as the metric label, so cardinality is fixed at
// registration time and path parameters like {id} never explode it.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, telemetry.InstrumentHandler(pattern, h))
}

// SetLogger replaces the server's structured logger (a discarding logger
// by default, keeping embedded and test servers quiet).
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
// own mux — opt-in via fiserver's -pprof flag, never on by default.
func (s *Server) EnablePprof() { telemetry.RegisterPprof(s.mux) }

// ServeHTTP implements http.Handler. With a key set installed it is
// also the authentication gate: the resolved tenant rides the request
// context into handlers, logs and — over the lease wire — worker-side
// correlation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.auth != nil && !authExempt(r.URL.Path) {
		t, ok := s.auth.Authenticate(r.Header.Get("Authorization"))
		if !ok {
			telemetry.HTTPAuthFailures.Inc()
			httpError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		telemetry.HTTPTenantRequests.With(t.Name).Inc()
		r = r.WithContext(telemetry.WithTenant(r.Context(), t.Name))
	}
	s.mux.ServeHTTP(w, r)
}

// tenantOf resolves the authenticated tenant of a request ("" and nil
// on open servers, where no tenant accounting applies).
func (s *Server) tenantOf(r *http.Request) (string, *Tenant) {
	if s.auth == nil {
		return "", nil
	}
	t, ok := s.auth.Authenticate(r.Header.Get("Authorization"))
	if !ok {
		return "", nil
	}
	return t.Name, t
}

// admitJob runs quota admission for a submission of cost normalized
// injections, answering 429 (and counting the rejection) itself when
// the tenant is over a limit. The returned cleanup releases the
// reserved job slot; callers hand it to the job so settling releases
// exactly once.
func (s *Server) admitJob(w http.ResponseWriter, t *Tenant, cost int64) bool {
	if t == nil {
		return true
	}
	if err := s.quota.admit(t, cost); err != nil {
		telemetry.JobsQuotaRejected.With(t.Name).Inc()
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return false
	}
	return true
}

// settleJob releases a job's quota slot, exactly once.
func (s *Server) settleJob(j *job) {
	j.mu.Lock()
	held := j.quotaHeld
	j.quotaHeld = false
	j.mu.Unlock()
	if held {
		s.quota.release(j.tenant)
	}
}

// writeJSON writes one JSON response with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the unified /v1 error envelope. Every non-2xx JSON
// answer — jobs, experiments and the worker protocol — has the
// shape {"error":{"code","message","job_id"}}: a stable machine-readable
// code derived from the status, the human-readable message, and the job
// the error concerns when one exists. Streamed NDJSON error *events*
// keep their own flat shape; this envelope covers request/response
// errors only.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

// errorCode maps a status code onto the envelope's stable slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "quota_exceeded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

// bodyStatus maps a request-body decode failure onto its status: 413
// when the body overran maxRequestBody, 400 for anything else.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// httpError writes the error envelope with no job attribution.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpJobError(w, code, "", format, args...)
}

// httpJobError writes the error envelope for an error concerning jobID
// (empty when the request never resolved to a job).
func httpJobError(w http.ResponseWriter, code int, jobID, format string, args ...any) {
	writeJSON(w, code, map[string]errorBody{"error": {
		Code:    errorCode(code),
		Message: fmt.Sprintf(format, args...),
		JobID:   jobID,
	}})
}

// journal appends one record to the job journal, if one is attached.
// Journal failures are logged, never fatal: a server whose disk fills
// keeps serving from memory exactly as an unjournaled one would.
func (s *Server) journal(rec journalRecord) {
	if s.jstore == nil {
		return
	}
	if err := s.jstore.append(rec); err != nil {
		s.log.Warn("job journal append failed", "job", rec.Job, "event", rec.Event, "err", err)
	}
}

// journalFinish appends a job's terminal record (the pre-finish crash
// barrier lives on this path).
func (s *Server) journalFinish(rec journalRecord) {
	if s.jstore == nil {
		return
	}
	if err := s.jstore.appendFinish(rec); err != nil {
		s.log.Warn("job journal append failed", "job", rec.Job, "event", rec.Event, "err", err)
	}
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Cells []campaign.CellSpec `json:"cells"`
	// Policy, when present, applies to every cell of the batch.
	Policy *jobPolicy `json:"policy,omitempty"`
}

// handleSubmit validates the batch, registers a job and runs it
// asynchronously.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		httpError(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	if len(req.Cells) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if p := req.Policy; p != nil {
		// Zero values mean "default", so only genuinely out-of-range
		// policies are rejected. Normalize owns the rules (and the exact
		// error text, which is part of the API).
		norm, err := p.Normalize()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		*p = norm
	}
	batch, cells, err := buildBatch(req.Cells, req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, tq := s.tenantOf(r)
	if !s.admitJob(w, tq, batchCost(req.Cells)) {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		if tq != nil {
			s.quota.release(tenant)
		}
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.running.Add(1)
	s.nextID++
	j := &job{
		id:        newJobID("job", s.nextID),
		kind:      "batch",
		cancel:    cancel,
		tenant:    tenant,
		quotaHeld: tq != nil,
		state:     "running",
		cells:     cells,
		results:   make([]*finject.Result, len(batch)),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	telemetry.JobsSubmitted.With(tenantMetricLabel(tenant)).Inc()

	// The submit record goes down before the job goroutine can journal
	// its first cell, so replay always sees a job before its transitions.
	s.journal(journalRecord{
		Event: "submit", Job: j.id, Kind: "batch", Tenant: tenant,
		Cells: req.Cells, Policy: req.Policy,
	})

	// The job id and tenant ride the context from here through the
	// scheduler and — on the remote tier — across the lease wire into
	// worker logs and fair-share accounting.
	jctx := telemetry.WithTenant(telemetry.WithJob(ctx, j.id), tenant)
	s.log.InfoContext(jctx, "job submitted", "kind", "batch", "cells", len(batch))

	go s.runBatchJob(jctx, cancel, j, batch)

	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "total": len(batch)})
}

// buildBatch compiles submitted cell specs (plus an optional batch-wide
// policy override) into runnable campaigns and their initial cell
// states. Shared by submission and restart recovery, so a recovered job
// re-runs through exactly the validation and policy path it was
// submitted under.
func buildBatch(specs []campaign.CellSpec, policy *jobPolicy) ([]finject.Campaign, []cellState, error) {
	batch := make([]finject.Campaign, len(specs))
	cells := make([]cellState, len(specs))
	for i, spec := range specs {
		c, err := spec.Campaign()
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d: %v", i, err)
		}
		if policy != nil {
			// The batch policy replaces each cell's stopping rule but keeps
			// the cell's own checkpoint knob unless the policy sets one; a
			// seed in the policy block is ignored — cell identity always
			// comes from the spec.
			c.Policy = policy.Policy(c.Policy.Checkpoint)
		}
		batch[i] = c
		cells[i] = cellState{Spec: campaign.SpecOf(c), State: "pending"}
	}
	return batch, cells, nil
}

// batchCost sums a submission's normalized injection caps — the
// admission weight the inj-rate quota charges.
func batchCost(specs []campaign.CellSpec) int64 {
	var cost int64
	for _, s := range specs {
		cost += int64(s.Normalize().Injections)
	}
	return cost
}

// tenantMetricLabel maps the empty tenant to the documented label value
// for per-tenant metric families on open servers.
func tenantMetricLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// runBatchJob drives one batch job through the scheduler, journaling
// every cell transition and the terminal state. It is the shared engine
// behind fresh submissions and restart recovery: because campaigns are
// deterministic functions of their specs, re-driving a recovered job
// through the same path yields byte-identical results, with
// already-journaled cells answered from the warm campaign store.
func (s *Server) runBatchJob(ctx context.Context, cancel context.CancelFunc, j *job, batch []finject.Campaign) {
	// Release the context's resources once the batch settles; DELETE
	// uses the same cancel to abort early and Shutdown drains on the
	// same WaitGroup.
	defer s.running.Done()
	defer cancel()
	results, err := s.sched.RunBatch(ctx, batch, func(i int, res *finject.Result, cached bool, cellErr error) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.done++
		if cellErr != nil {
			j.cells[i].State = "failed"
			j.cells[i].Error = cellErr.Error()
			s.log.WarnContext(ctx, "cell failed", "spec", j.cells[i].Spec, "err", cellErr)
		} else {
			j.cells[i].State = "done"
			j.cells[i].Cached = cached
			j.cells[i].Injections = res.Injections
			s.log.DebugContext(ctx, "cell done",
				"spec", j.cells[i].Spec, "cached", cached, "injections", res.Injections)
		}
		s.journal(journalRecord{
			Event: "cell", Job: j.id, Index: i,
			State: j.cells[i].State, Cached: j.cells[i].Cached,
			Injections: j.cells[i].Injections, Error: j.cells[i].Error,
			Result: res,
		})
	})
	j.mu.Lock()
	j.results = results
	switch {
	case err == nil:
		j.state = "done"
	case ctx.Err() != nil:
		j.state = "canceled"
		j.errMsg = err.Error()
	default:
		j.state = "failed"
		j.errMsg = err.Error()
	}
	state, errMsg, done := j.state, j.errMsg, j.done
	j.mu.Unlock()
	s.settleJob(j)
	s.journalFinish(journalRecord{Event: "finish", Job: j.id, State: state, Error: errMsg})
	s.log.InfoContext(ctx, "job finished", "state", state, "done", done, "error", errMsg)
}

// evictLocked drops the oldest finished jobs beyond the retention bound,
// journaling each eviction so a restarted server retains the same set.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	for i := 0; len(s.jobs) > s.maxRetained && i < len(s.order); {
		id := s.order[i]
		j := s.jobs[id]
		if j == nil {
			s.order = append(s.order[:i], s.order[i+1:]...)
			continue
		}
		j.mu.Lock()
		finished := j.state != "running"
		j.mu.Unlock()
		if !finished {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.journal(journalRecord{Event: "delete", Job: id})
	}
}

// jobByID resolves the {id} path value, scoped to the requesting
// tenant: in multi-tenant mode another tenant's job answers the same
// 404 as a job that never existed, so job ids leak nothing across
// tenants. Jobs journaled before tenancy (tenant "") stay visible to
// everyone.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j != nil && !s.tenantSees(r, j) {
		j = nil
	}
	if j == nil {
		httpJobError(w, http.StatusNotFound, r.PathValue("id"), "unknown job %q", r.PathValue("id"))
	}
	return j
}

// tenantSees reports whether the request's tenant may observe j.
func (s *Server) tenantSees(r *http.Request, j *job) bool {
	if s.auth == nil || j.tenant == "" {
		return true
	}
	tenant, _ := s.tenantOf(r)
	return tenant == j.tenant
}

// handleStatus reports a job's progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	body := map[string]any{
		"id":    j.id,
		"kind":  j.kind,
		"state": j.state,
		"done":  j.done,
		"total": len(j.cells),
		"cells": j.cells,
		"error": j.errMsg,
	}
	if j.tenant != "" {
		body["tenant"] = j.tenant
	}
	writeJSON(w, http.StatusOK, body)
}

// jobResultRow pairs a cell spec with its result.
type jobResultRow struct {
	Spec   campaign.CellSpec `json:"spec"`
	Result *finject.Result   `json:"result"`
}

// handleResult returns the full results once the job is done.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == "running" {
		httpJobError(w, http.StatusConflict, j.id, "job %s still running (%d/%d cells)", j.id, j.done, len(j.cells))
		return
	}
	if j.state != "done" {
		httpJobError(w, http.StatusConflict, j.id, "job %s %s: %s", j.id, j.state, j.errMsg)
		return
	}
	if j.kind == "experiment" {
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "result": j.expResult})
		return
	}
	rows := make([]jobResultRow, len(j.cells))
	for i := range j.cells {
		rows[i] = jobResultRow{Spec: j.cells[i].Spec, Result: j.results[i]}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "cells": rows})
}

// jobSummary is one row of the GET /v1/jobs listing.
type jobSummary struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Tenant string `json:"tenant,omitempty"`
}

// handleJobs lists the retained jobs, oldest first — the discovery
// surface clients use to find their jobs again after a server restart.
// In multi-tenant mode each tenant sees only its own jobs (plus any
// pre-tenancy jobs with no owner).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && s.tenantSees(r, j) {
			js = append(js, j)
		}
	}
	s.mu.Unlock()
	rows := make([]jobSummary, len(js))
	for i, j := range js {
		j.mu.Lock()
		rows[i] = jobSummary{ID: j.id, Kind: j.kind, State: j.state, Done: j.done, Total: len(j.cells), Tenant: j.tenant}
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": rows})
}

// handleCancel implements DELETE /v1/jobs/{id}. The semantics are
// state-dependent and pinned by TestDeleteJobSemantics:
//
//   - running job: request cancellation, answer {"state":"canceling"};
//     the job settles as "canceled" and stays retrievable until deleted.
//   - finished job ("done", "failed", "canceled"): remove it from the
//     retained set, answer {"state":"deleted"}; subsequent requests 404.
//   - unknown id (never submitted, already deleted or evicted): 404.
//
// Removal happens under s.mu — the same lock evictLocked runs under —
// so a DELETE can never race eviction into a double-removal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && !s.tenantSees(r, j) {
		j = nil
	}
	if j == nil {
		s.mu.Unlock()
		httpJobError(w, http.StatusNotFound, id, "unknown job %q", id)
		return
	}
	j.mu.Lock()
	finished := j.state != "running"
	j.mu.Unlock()
	if !finished {
		s.mu.Unlock()
		j.cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": "canceling"})
		return
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.journal(journalRecord{Event: "delete", Job: id})
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "deleted"})
}

// Shutdown stops accepting new jobs, cancels the in-flight ones and
// waits for their goroutines to settle, up to ctx's deadline. It is the
// drain step between http.Server.Shutdown and process exit: without it,
// job goroutines keep simulating into a torn-down process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleStats reports scheduler counters, store size and (with remote
// workers enabled) lease-queue state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	body := map[string]any{
		"hits":        st.Hits,
		"runs":        st.Runs,
		"joins":       st.Joins,
		"golden_runs": st.GoldenRuns,
		"injections":  st.Injections,
		"upgrades":    st.Upgrades,
		"store_cells": s.sched.Store().Len(),
	}
	if s.queue != nil {
		body["workers"] = s.queue.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
