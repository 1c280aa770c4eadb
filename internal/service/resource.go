package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecripse/internal/obsv"
)

// lifecycle is the state machine jobs and sweeps share: identity, the run
// context and done channel, the SSE event ring and span trace, and the
// lock-guarded state, error and timestamps. Every terminal transition goes
// through end, so the context is released, done closes and the observer
// fires exactly once whichever way a resource finishes.
type lifecycle struct {
	ID  string
	Key string // content address of the spec
	// Tenant names the authenticated API client that submitted the resource
	// ("" with auth off). Set before it is tracked, then read-only — and
	// deliberately not part of the spec, so multi-tenant traffic still
	// shares one content-addressed cache entry per distinct spec.
	Tenant string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on entering a terminal state

	// events buffers diagnostics for SSE consumers; trace records the span
	// timeline (service phases plus engine phases).
	events *eventRing
	trace  *obsv.Trace

	// onState observes every committed transition (the service persists
	// them). It is invoked outside the lock, by the goroutine that performed
	// the transition; the state machine admits no concurrent transitions, so
	// calls are sequential per resource.
	onState func(state State, errMsg string, at time.Time)

	// mu guards the fields below and the embedding kind's own mutable fields.
	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

// start initializes a live, queued resource whose run context descends from
// the service's. Its trace is minted with a fresh distributed trace ID and
// capped at the configured span count; a valid propagated trace context
// (an inbound traceparent, or a sweep threading its ID through its points)
// replaces the ID.
func (c *lifecycle) start(s *Service, id, key, tenant string, tc obsv.TraceContext) {
	c.ID, c.Key, c.Tenant = id, key, tenant
	c.ctx, c.cancel = context.WithCancel(s.baseCtx)
	c.done = make(chan struct{})
	c.events = newEventRing(s.cfg.EventBuffer)
	c.trace = obsv.NewTrace()
	c.trace.SetID(obsv.NewTraceID())
	c.trace.SetMaxSpans(s.cfg.TraceMaxSpans)
	if len(tc.TraceID) == 32 {
		c.trace.SetID(tc.TraceID)
	}
	c.state = StateQueued
	c.created = time.Now()
}

// restore initializes a terminal resource from the persistent store: its
// context is already released, its done channel closed, and no transition
// observer fires (the store knows this state — it supplied it).
func (c *lifecycle) restore(id, key, tenant string, state State, errMsg string, created, started, finished time.Time) {
	c.ID, c.Key, c.Tenant = id, key, tenant
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.cancel()
	c.done = make(chan struct{})
	close(c.done)
	c.events = newEventRing(0)
	c.trace = obsv.NewTrace()
	c.state, c.errMsg = state, errMsg
	c.created, c.started, c.finished = created, started, finished
}

func (c *lifecycle) core() *lifecycle { return c }

// notify invokes the transition observer, if any.
func (c *lifecycle) notify(state State, errMsg string, at time.Time) {
	if c.onState != nil {
		c.onState(state, errMsg, at)
	}
}

// State returns the current lifecycle state.
func (c *lifecycle) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Done returns a channel closed when the resource reaches a terminal state.
func (c *lifecycle) Done() <-chan struct{} { return c.done }

// DiagSince drains buffered events at or after cursor. dropped counts
// events the cursor missed because the ring evicted them (slow consumer);
// next is the cursor for the following call.
func (c *lifecycle) DiagSince(cursor uint64) (events []DiagEvent, dropped uint64, next uint64) {
	return c.events.since(cursor)
}

// markRunning transitions queued → running; it reports false when the
// resource already left the queued state (a cancelled job is then skipped).
func (c *lifecycle) markRunning() bool {
	c.mu.Lock()
	if c.state != StateQueued {
		c.mu.Unlock()
		return false
	}
	c.state = StateRunning
	c.started = time.Now()
	at := c.started
	c.mu.Unlock()
	c.notify(StateRunning, "", at)
	return true
}

// end commits a terminal state: the one exit of every lifecycle. Under the
// lock it refuses a resource already terminal (or, with from set, one not in
// state from) and otherwise applies set, which stores the kind's own terminal
// fields; then it releases the context, closes done and notifies. Later calls
// are no-ops, so a worker completing a resource races safely with Cancel.
func (c *lifecycle) end(state State, errMsg string, from State, set func()) bool {
	c.mu.Lock()
	if c.state.Terminal() || (from != "" && c.state != from) {
		c.mu.Unlock()
		return false
	}
	c.state, c.errMsg = state, errMsg
	c.finished = time.Now()
	at := c.finished
	if set != nil {
		set()
	}
	c.mu.Unlock()
	c.cancel()
	close(c.done)
	c.notify(state, errMsg, at)
	return true
}

// requestCancel releases the run context of a non-terminal resource; its
// runner observes that and ends it. Reports false once terminal.
func (c *lifecycle) requestCancel() bool {
	if c.State().Terminal() {
		return false
	}
	c.cancel()
	return true
}

// stamps renders the timestamps for the API views (RFC 3339, UTC; the start
// and finish stamps empty until set). The caller holds mu.
func (c *lifecycle) stamps() (created, started, finished string) {
	created = c.created.UTC().Format(time.RFC3339Nano)
	if !c.started.IsZero() {
		started = c.started.UTC().Format(time.RFC3339Nano)
	}
	if !c.finished.IsZero() {
		finished = c.finished.UTC().Format(time.RFC3339Nano)
	}
	return created, started, finished
}

// resource is what the shared registry and HTTP surface need of a job or a
// sweep.
type resource interface {
	core() *lifecycle
	// view renders the API body; detail adds the result (and, for a sweep,
	// the per-point status).
	view(detail bool) any
	// progress is the periodic SSE progress payload.
	progress() any
	// eventName maps an event-ring kind onto its SSE event name.
	eventName(kind string) string
}

// registry tracks one resource kind: it mints IDs ("j000001", "sw000001";
// "s1-j000001" under Config.NodeID — the prefix never enters a spec hash),
// keeps the by-ID map and the submission order, and resumes numbering past
// recovered IDs.
type registry[T resource] struct {
	prefix   string // "j" or "sw"
	node     string
	notFound error

	mu    sync.Mutex
	byID  map[string]T
	order []T
	next  int64
}

func newRegistry[T resource](prefix, node string, notFound error) *registry[T] {
	return &registry[T]{prefix: prefix, node: node, notFound: notFound, byID: make(map[string]T)}
}

// mint returns a fresh ID.
func (r *registry[T]) mint() string {
	r.mu.Lock()
	r.next++
	id := fmt.Sprintf("%s%06d", r.prefix, r.next)
	r.mu.Unlock()
	if r.node != "" {
		id = r.node + "-" + id
	}
	return id
}

// observe advances the counter past a recovered ID (the number always
// follows the last occurrence of the kind's prefix), so IDs minted after a
// restart never collide with journaled ones.
func (r *registry[T]) observe(id string) {
	i := strings.LastIndex(id, r.prefix)
	if i < 0 {
		return
	}
	n, err := strconv.ParseInt(id[i+len(r.prefix):], 10, 64)
	r.mu.Lock()
	if err == nil && n > r.next {
		r.next = n
	}
	r.mu.Unlock()
}

func (r *registry[T]) add(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[v.core().ID] = v
	r.order = append(r.order, v)
}

func (r *registry[T]) remove(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, v.core().ID)
	for i, o := range r.order {
		if o.core() == v.core() {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *registry[T]) get(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	if !ok {
		return v, r.notFound
	}
	return v, nil
}

// list returns every tracked resource in submission order.
func (r *registry[T]) list() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.order...)
}

// find returns the first resource, in submission order, that match accepts
// (the zero T when none does).
func (r *registry[T]) find(match func(T) bool) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.order {
		if match(v) {
			return v
		}
	}
	var zero T
	return zero
}
