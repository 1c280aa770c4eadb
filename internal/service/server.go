package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ecripse/internal/obsv"
)

// ForwardedHeader marks a request proxied by a cluster peer or router. The
// entry point already authenticated and rate-limited the client, so the
// receiving shard skips re-charging the tenant (and the cluster layer uses
// it to stop forwarding loops). Spoofing it from outside the cluster only
// bypasses rate accounting, never authentication — forwarded requests still
// need a valid API key when the shard enforces one.
const ForwardedHeader = "X-Ecripse-Forwarded"

// isForwarded reports whether a peer already charged this request's tenant.
func isForwarded(r *http.Request) bool { return r.Header.Get(ForwardedHeader) != "" }

// Server exposes a Service over HTTP/JSON:
//
//	POST   /v1/jobs             submit a JobSpec        → 202 job view (200 on a cache hit)
//	POST   /v1/jobs:batch       submit [JobSpec...]     → 200 [{status, job|error}...]
//	GET    /v1/jobs             list jobs (no results)  → 200 [view...]
//	GET    /v1/jobs/{id}        status + result         → 200 view
//	GET    /v1/jobs/{id}/events progress stream (SSE)   → text/event-stream
//	GET    /v1/jobs/{id}/trace  span timeline           → 200 {id, state, spans}
//	DELETE /v1/jobs/{id}        cancel                  → 202 view (409 view if already terminal)
//	POST   /v1/sweeps           submit a SweepSpec      → 202 sweep view (400 over the point limit)
//	GET    /v1/sweeps           list sweeps             → 200 [view...]
//	GET    /v1/sweeps/{id}      status, points, result  → 200 view
//	GET    /v1/sweeps/{id}/events per-point SSE         → text/event-stream
//	GET    /v1/sweeps/{id}/trace  reassembled trace     → 200 {id, state, trace_id, spans}
//	DELETE /v1/sweeps/{id}      cancel                  → 202 view (409 if already terminal)
//	GET    /v1/cache/{key}      result by content key   → 200 payload (peer cache lookups)
//	GET    /metrics             expvar-style JSON (?format=prometheus for text exposition)
//	GET    /healthz             liveness (503 while draining)
//
// With Tenants configured, /v1/* requests (except /v1/cache/, whose sha-256
// keys are capabilities — intra-cluster peers present no API key) require a
// valid API key and submits are charged against the tenant's token bucket
// and quotas; rejections answer 429 with a Retry-After header. Submit
// bodies beyond MaxBodyBytes answer 413.
type Server struct {
	svc *Service
	mux *http.ServeMux

	// EventInterval is the progress-event period of /events streams.
	EventInterval time.Duration

	// MaxBodyBytes caps a submit body (single or batch); oversized specs
	// answer 413 instead of buffering unbounded attacker-controlled JSON.
	// Zero selects DefaultMaxBodyBytes; negative disables the cap.
	MaxBodyBytes int64

	// MaxBatchJobs caps the spec count of one POST /v1/jobs:batch request
	// (default DefaultMaxBatchJobs).
	MaxBatchJobs int

	// Tenants enables API-key auth and fairness enforcement. Nil (the
	// default) keeps the service open, exactly as before.
	Tenants *Tenants
}

// DefaultMaxBodyBytes bounds one submit body. Specs are small (a custom
// cell plus a sweep grid is well under 16 KiB); 1 MiB leaves two orders of
// magnitude of headroom while still refusing junk uploads.
const DefaultMaxBodyBytes = 1 << 20

// DefaultMaxBatchJobs bounds one batch submission.
const DefaultMaxBatchJobs = 1024

// NewServer wires the routes for the service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), EventInterval: 250 * time.Millisecond}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	serveResources(s, "/v1/jobs", svc.jobs, svc.Cancel, (*Job).traceView)
	serveResources(s, "/v1/sweeps", svc.sweeps, svc.CancelSweep, svc.AssembleSweepTrace)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler: authenticate /v1/* (when tenants are
// configured), then dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.Tenants != nil && strings.HasPrefix(r.URL.Path, "/v1/") &&
		!strings.HasPrefix(r.URL.Path, "/v1/cache/") {
		t, err := s.Tenants.Authenticate(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		r = r.WithContext(WithTenant(r.Context(), t))
	}
	// Propagated distributed-trace context (W3C traceparent). Invalid or
	// absent headers leave the zero TraceContext, and submits mint fresh IDs.
	if tc, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader)); ok {
		r = r.WithContext(obsv.WithTraceContext(r.Context(), tc))
	}
	s.mux.ServeHTTP(w, r)
}

// decode reads a submit body under the configured cap (see DecodeSubmit).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	limit := s.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	return DecodeSubmit(w, r, limit, what, v)
}

// DecodeSubmit decodes a submit body into v, rejecting unknown fields and
// capping the body at limit bytes (no cap when limit <= 0). On failure it
// answers the request itself — 413 over the cap, 400 for anything else,
// naming what was being decoded — and reports false.
func DecodeSubmit(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &mbe):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s exceeds the %d-byte body limit", what, mbe.Limit))
	default:
		writeError(w, http.StatusBadRequest, "decode "+what+": "+err.Error())
	}
	return false
}

// submitErrStatus maps a Submit or admission error onto its response, setting
// Retry-After on the back-pressure statuses (full queue, rate limit, quota)
// so sweep drivers back off instead of hot-looping.
func submitErrStatus(w http.ResponseWriter, err error) int {
	setRetry := func(v string) {
		if w != nil {
			w.Header().Set("Retry-After", v)
		}
	}
	var rle *RateLimitError
	switch {
	case errors.As(err, &rle):
		setRetry(strconv.Itoa(int(rle.RetryAfter.Seconds())))
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull):
		setRetry("1")
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !s.decode(w, r, "spec", &spec) {
		return
	}
	tenant := TenantFrom(r.Context())
	if !isForwarded(r) {
		if err := s.Tenants.Acquire(tenant, 1); err != nil {
			writeError(w, submitErrStatus(w, err), err.Error())
			return
		}
	}
	j, err := s.svc.SubmitTraced(tenant.Name(), spec, obsv.TraceContextFrom(r.Context()))
	switch {
	case err != nil:
		writeError(w, submitErrStatus(w, err), err.Error())
	case j.State() == StateDone:
		writeJSON(w, http.StatusOK, j.Snapshot(true)) // cache hit: answered inline
	default:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Snapshot(false))
	}
}

// BatchItem is one element of a batch-submit response, aligned by index
// with the request's spec array. Status carries the HTTP code the spec
// would have received as a single submit.
type BatchItem struct {
	Status int    `json:"status"`
	Job    *View  `json:"job,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleBatch submits an array of specs in one request, amortizing HTTP
// overhead for externally driven sweeps. Fairness is atomic: the tenant is
// charged len(specs) up front and a rejection refuses the whole batch with
// 429 + Retry-After. Per-spec failures (bad spec, full queue) surface in
// the per-item status without failing the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if !s.decode(w, r, "batch", &specs) {
		return
	}
	maxJobs := s.MaxBatchJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxBatchJobs
	}
	if len(specs) == 0 || len(specs) > maxJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch must carry 1..%d specs (got %d)", maxJobs, len(specs)))
		return
	}
	tenant := TenantFrom(r.Context())
	if !isForwarded(r) {
		if err := s.Tenants.Acquire(tenant, len(specs)); err != nil {
			writeError(w, submitErrStatus(w, err), err.Error())
			return
		}
	}
	items := make([]BatchItem, len(specs))
	tc := obsv.TraceContextFrom(r.Context())
	for i, spec := range specs {
		j, err := s.svc.SubmitTraced(tenant.Name(), spec, tc)
		if err != nil {
			items[i] = BatchItem{Status: submitErrStatus(nil, err), Error: err.Error()}
			continue
		}
		view := j.Snapshot(false)
		status := http.StatusAccepted
		if view.State == StateDone {
			status = http.StatusOK
		}
		items[i] = BatchItem{Status: status, Job: &view}
	}
	writeJSON(w, http.StatusOK, items)
}

// handleSweepSubmit accepts a SweepSpec, plans its grid, and starts the
// sweep controller. Fairness is atomic like a batch: the tenant is charged
// one token per grid point up front. Oversized grids (ErrTooManyPoints) and
// any other spec defect answer 400.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !s.decode(w, r, "sweep spec", &spec) {
		return
	}
	// Normalize before charging so the token count reflects the real grid
	// (and junk grids cost nothing). SubmitSweepAs re-normalizes the already-
	// canonical spec, which is idempotent.
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := TenantFrom(r.Context())
	if !isForwarded(r) {
		if err := s.Tenants.Acquire(tenant, spec.NumPoints()); err != nil {
			writeError(w, submitErrStatus(w, err), err.Error())
			return
		}
	}
	sw, err := s.svc.SubmitSweepTraced(tenant.Name(), spec, obsv.TraceContextFrom(r.Context()))
	if err != nil {
		writeError(w, submitErrStatus(w, err), err.Error())
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, sw.Snapshot(false))
}

// handleCacheLookup answers a peer shard's read-through probe: the raw
// result payload for a content key, or 404. Keys are sha-256 content
// addresses — knowing one means knowing the full spec, so the endpoint
// leaks nothing an API key would protect.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	payload, ok := s.svc.CachedResult(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "key not cached")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// serveResources registers one collection's read, cancel, event-stream and
// trace routes under path. Jobs and sweeps share them: unknown IDs answer
// 404 with the kind's not-found text, DELETE answers 202 with the view (409
// with the terminal view when there was nothing left to cancel), and the
// trace endpoint answers {id, state, trace_id, spans}.
func serveResources[T resource](s *Server, path string, reg *registry[T],
	cancel func(id string) (T, bool, error), trace func(T) (string, []obsv.SpanView)) {
	lookup := func(w http.ResponseWriter, r *http.Request) (T, bool) {
		v, err := reg.get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
		}
		return v, err == nil
	}
	s.mux.HandleFunc("GET "+path, func(w http.ResponseWriter, r *http.Request) {
		all := reg.list()
		views := make([]any, len(all))
		for i, v := range all {
			views[i] = v.view(false)
		}
		writeJSON(w, http.StatusOK, views)
	})
	s.mux.HandleFunc("GET "+path+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		if v, ok := lookup(w, r); ok {
			writeJSON(w, http.StatusOK, v.view(true))
		}
	})
	s.mux.HandleFunc("DELETE "+path+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, changed, err := cancel(r.PathValue("id"))
		switch {
		case err != nil:
			writeError(w, http.StatusNotFound, err.Error())
		case changed:
			writeJSON(w, http.StatusAccepted, v.view(false))
		default:
			writeJSON(w, http.StatusConflict, v.view(false))
		}
	})
	s.mux.HandleFunc("GET "+path+"/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if v, ok := lookup(w, r); ok {
			s.stream(w, r, v)
		}
	})
	s.mux.HandleFunc("GET "+path+"/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		v, ok := lookup(w, r)
		if !ok {
			return
		}
		traceID, spans := trace(v)
		if spans == nil {
			spans = []obsv.SpanView{}
		}
		writeJSON(w, http.StatusOK, struct {
			ID      string          `json:"id"`
			State   State           `json:"state"`
			TraceID string          `json:"trace_id,omitempty"`
			Spans   []obsv.SpanView `json:"spans"`
		}{ID: v.core().ID, State: v.core().State(), TraceID: traceID, Spans: spans})
	})
}

// stream serves a resource's progress as server-sent events: buffered ring
// events under their kind's SSE names (a consumer that fell behind the ring
// first learns how many events it missed, then gets the survivors in
// order), a periodic "progress" summary, and a final "done" with the full
// view once the resource is terminal.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, res resource) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	}
	c := res.core()
	var cursor uint64
	drain := func() {
		events, dropped, next := c.DiagSince(cursor)
		cursor = next
		if dropped > 0 {
			emit("dropped", map[string]uint64{"missed": dropped})
		}
		for _, ev := range events {
			emit(res.eventName(ev.Kind), ev)
		}
	}
	ticker := time.NewTicker(s.EventInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.Done():
			drain()
			emit("done", res.view(true))
			return
		case <-ticker.C:
			drain()
			emit("progress", res.progress())
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.svc.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	build := ReadBuildInfo()
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": s.svc.Uptime().Seconds(),
		"go_version":     build.GoVersion,
	}
	if build.Revision != "" {
		body["revision"] = build.Revision
	}
	if s.svc.Draining() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
