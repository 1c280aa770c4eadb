package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// tracer gathers the per-layer ledger of a traced pass: span durations,
// benchmark-side timings around the store and the HTTP handlers (where the
// router's probes and the RemoteCache hook's peer lookups arrive as
// /v1/cache requests), service counters, and a CPU profile. Instruments
// record only while the timed phase runs.
type tracer struct {
	on atomic.Bool

	mu          sync.Mutex
	spans       map[string][]float64 // span name → durations [ms]
	handler     map[string][]float64 // shard request class → handler time [ms]
	shardByID   map[string]float64   // trace ID → shard handler time [ms]
	routerByID  map[string]float64   // trace ID → router handler time [ms]
	appendMS    []float64
	appends     float64
	cacheHits   float64
	cacheMisses float64
	recoverMS   []float64
	pipe        montecarlo.PipelineStats // timed-phase delta

	prof bytes.Buffer
	cpu  cpuProfile
}

func newTracer() *tracer {
	return &tracer{
		spans:      map[string][]float64{},
		handler:    map[string][]float64{},
		shardByID:  map[string]float64{},
		routerByID: map[string]float64{},
	}
}

// start opens the timed phase: instruments record and the CPU profile runs.
func (t *tracer) start() error {
	t.pipe = montecarlo.TotalPipelineStats()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return err
	}
	t.on.Store(true)
	return nil
}

// stop closes the timed phase and attributes the profile.
func (t *tracer) stop() {
	t.on.Store(false)
	pprof.StopCPUProfile()
	p1 := montecarlo.TotalPipelineStats()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pipe = montecarlo.PipelineStats{
		GenNS:    p1.GenNS - t.pipe.GenNS,
		StallNS:  p1.StallNS - t.pipe.StallNS,
		SettleNS: p1.SettleNS - t.pipe.SettleNS,
	}
	if cpu, err := attribute(t.prof.Bytes()); err == nil {
		t.cpu = cpu
	}
}

// addSpans records span views by name.
func (t *tracer) addSpans(spans []obsv.SpanView) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.DurMS >= 0 {
			t.spans[s.Name] = append(t.spans[s.Name], s.DurMS)
		}
	}
}

// hops pairs router and shard handler times by trace ID: the router's own
// share of a routed request. Callers hold t.mu.
func (t *tracer) hops() []float64 {
	var out []float64
	for id, r := range t.routerByID {
		if s, ok := t.shardByID[id]; ok {
			out = append(out, r-s)
		}
	}
	return out
}

// timedStore wraps a service.Store and times its journal appends.
type timedStore struct {
	service.Store
	tr *tracer
}

func (s timedStore) timed(fn func() error) error {
	if !s.tr.on.Load() {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	d := ms(time.Since(t0))
	s.tr.mu.Lock()
	s.tr.appendMS = append(s.tr.appendMS, d)
	s.tr.mu.Unlock()
	return err
}

func (s timedStore) AppendSubmit(id string, spec json.RawMessage, key, tenant string, cached bool, at time.Time) error {
	return s.timed(func() error { return s.Store.AppendSubmit(id, spec, key, tenant, cached, at) })
}

func (s timedStore) AppendState(id string, state service.State, errMsg string, at time.Time) error {
	return s.timed(func() error { return s.Store.AppendState(id, state, errMsg, at) })
}

func (s timedStore) AppendResult(key string, payload json.RawMessage) error {
	return s.timed(func() error { return s.Store.AppendResult(key, payload) })
}

func (s timedStore) AppendTrace(id string, trace json.RawMessage) error {
	return s.timed(func() error { return s.Store.AppendTrace(id, trace) })
}

func (s timedStore) AppendSweep(id string, spec json.RawMessage, key, tenant string, at time.Time) error {
	return s.timed(func() error { return s.Store.AppendSweep(id, spec, key, tenant, at) })
}

func (s timedStore) AppendSweepState(id string, state service.State, errMsg string, result json.RawMessage, at time.Time) error {
	return s.timed(func() error { return s.Store.AppendSweepState(id, state, errMsg, result, at) })
}

// statusWriter captures the response status and keeps SSE flushing working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedHandler times each request through a shard's Server (router false)
// or the cluster Router (router true).
type timedHandler struct {
	next   http.Handler
	tr     *tracer
	router bool
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(sw, r)
	d := ms(time.Since(t0))
	class := requestClass(r, sw.status)
	tc, traced := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader))
	h.tr.mu.Lock()
	defer h.tr.mu.Unlock()
	if h.router {
		if traced && class != "events" {
			h.tr.routerByID[tc.TraceID] = d
		}
		return
	}
	h.tr.handler[class] = append(h.tr.handler[class], d)
	if traced && class != "events" {
		h.tr.shardByID[tc.TraceID] += d
	}
}

// requestClass names a request for the handler ledger.
func requestClass(r *http.Request, status int) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		if status == http.StatusOK {
			return "submit_hit"
		}
		return "submit_new"
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "sweep_submit"
	case strings.HasPrefix(p, "/v1/cache/"):
		return "cache_lookup"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/trace"):
		return "trace"
	case strings.HasPrefix(p, "/v1/sweeps/"):
		return "sweep_get"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "get"
	}
	return "other"
}
