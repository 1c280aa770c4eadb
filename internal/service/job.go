package service

import (
	"encoding/json"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → one of the terminal states. A queued
// job that is cancelled goes straight to canceled without running.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Job is one submitted yield-estimation job: the shared lifecycle plus the
// spec, a simulation counter read lock-free (it is atomic, so progress can
// be observed while the job runs) and the result. Mutable fields are
// guarded by the lifecycle's mu.
type Job struct {
	lifecycle
	Spec JobSpec

	counter *montecarlo.Counter
	// rawTrace holds the persisted timeline of a recovered job instead of
	// the live trace (set at restore, then read-only).
	rawTrace json.RawMessage

	cached bool
	result json.RawMessage
}

// newJob creates a queued job wired to the service: transitions are
// persisted and the trace joins tc (see lifecycle.start).
func (s *Service) newJob(id string, spec JobSpec, key, tenant string, tc obsv.TraceContext) *Job {
	j := &Job{Spec: spec, counter: &montecarlo.Counter{}}
	j.start(s, id, key, tenant, tc)
	j.onState = func(state State, errMsg string, at time.Time) { s.onJobState(j, state, errMsg, at) }
	return j
}

// restoreJob rebuilds a terminal job from the persistent store.
func restoreJob(r RecoveredJob, spec JobSpec, result json.RawMessage) *Job {
	j := &Job{Spec: spec, counter: &montecarlo.Counter{}, rawTrace: r.Trace, cached: r.Cached, result: result}
	j.restore(r.ID, r.Key, r.Tenant, r.State, r.Error, r.Created, r.Started, r.Finished)
	return j
}

// Sims returns the transistor-level simulations consumed so far.
func (j *Job) Sims() int64 { return j.counter.Count() }

// IsCached reports whether the job was answered from the result cache.
func (j *Job) IsCached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Result returns the marshaled result payload (nil while unfinished).
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation. A queued job flips to canceled immediately;
// a running job keeps the running state until the worker stops at the
// estimator's next cancellation checkpoint — so once a job reads canceled,
// its simulation counter has stopped advancing. Cancel reports whether the
// request had any effect (false once terminal).
func (j *Job) Cancel() bool {
	return j.end(StateCanceled, "canceled while queued", StateQueued, nil) || j.requestCancel()
}

// finish moves the job to a terminal state with an optional result payload.
func (j *Job) finish(state State, result json.RawMessage, errMsg string) {
	j.end(state, errMsg, "", func() { j.result = result })
}

// finishCached marks a freshly created job as answered from the cache.
func (j *Job) finishCached(result json.RawMessage) {
	j.end(StateDone, "", "", func() { j.cached, j.result = true, result })
}

// publish buffers one diagnostic event for SSE consumers. Safe to call from
// the worker at engine barriers; never blocks.
func (j *Job) publish(kind string, data any) { j.events.publish(kind, data) }

// TracePayload renders the job's span timeline as JSON — an object carrying
// the distributed trace ID plus the spans ({"trace_id": ..., "spans": [...]})
// — using the live trace for jobs run by this process, or the persisted
// timeline of a recovered job. Nil when neither exists yet.
func (j *Job) TracePayload() json.RawMessage {
	if j.rawTrace != nil {
		return j.rawTrace
	}
	if j.trace.Len() == 0 {
		return nil
	}
	b, err := json.Marshal(tracePayload{TraceID: j.trace.ID(), Spans: j.trace.Spans()})
	if err != nil {
		return nil
	}
	return b
}

// Timeline renders the trace as indented text (empty for recovered jobs,
// whose spans live only in the persisted JSON).
func (j *Job) Timeline() string { return j.trace.Timeline() }

// timestamps returns the creation and start times under the job lock.
func (j *Job) timestamps() (created, started time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created, j.started
}

// addQueueWaitSpan synthesizes the queue-wait span from the job's own
// timestamps, once the transition to running has stamped them.
func (j *Job) addQueueWaitSpan() {
	if created, started := j.timestamps(); !started.IsZero() {
		j.trace.Add("queue.wait", -1, created, started)
	}
}

// View is the JSON representation of a job served by the API.
type View struct {
	ID         string          `json:"id"`
	State      State           `json:"state"`
	Cached     bool            `json:"cached,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	Error      string          `json:"error,omitempty"`
	Sims       int64           `json:"sims"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at,omitempty"`
	FinishedAt string          `json:"finished_at,omitempty"`
	Spec       JobSpec         `json:"spec"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Snapshot renders the job for the API. withResult=false omits the payload
// (job listings stay light even when results carry long series).
func (j *Job) Snapshot(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:     j.ID,
		State:  j.state,
		Cached: j.cached,
		Tenant: j.Tenant,
		Error:  j.errMsg,
		Sims:   j.counter.Count(),
		Spec:   j.Spec,
	}
	v.CreatedAt, v.StartedAt, v.FinishedAt = j.stamps()
	if withResult {
		v.Result = j.result
	}
	return v
}

func (j *Job) view(detail bool) any { return j.Snapshot(detail) }

// jobProgress is the periodic SSE progress payload of a job.
type jobProgress struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Sims  int64  `json:"sims"`
}

func (j *Job) progress() any { return jobProgress{ID: j.ID, State: j.State(), Sims: j.Sims()} }

// eventName streams convergence diagnostics as "diag"; statistical-health
// verdicts get their own "health" event so dashboards can subscribe to
// violations without parsing every diagnostic.
func (j *Job) eventName(kind string) string {
	if kind == "health" {
		return "health"
	}
	return "diag"
}

// traceView renders the job's span timeline for the trace endpoint.
func (j *Job) traceView() (string, []obsv.SpanView) {
	tp, _ := decodeTrace(j.TracePayload())
	return tp.TraceID, tp.Spans
}
