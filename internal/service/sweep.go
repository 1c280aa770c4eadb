package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
)

// ErrSweepNotFound is returned for unknown sweep IDs.
var ErrSweepNotFound = errors.New("service: no such sweep")

// Sweep is one submitted sweep: a grid of point jobs planned from a
// SweepSpec and driven by a controller goroutine. It is the same resource as
// a job — one lifecycle, registry, event stream and trace surface — with a
// point plan in place of a single spec. Point jobs are ordinary jobs —
// content-addressed, cached, persisted — so a re-submitted or recovered
// sweep answers its completed points from the cache and only computes the
// remainder.
type Sweep struct {
	lifecycle
	Spec SweepSpec

	points []PointPlan
	// parentSpan is the remote parent span ID propagated with the sweep
	// (the router's dispatch span); recorded on the root span so the
	// router can graft this shard's tree into its own.
	parentSpan string

	// result is the aggregate; it rides the terminal journal record, so the
	// aggregate — which contains nondeterministic job IDs and is therefore
	// not content-addressable — survives restarts without entering the
	// result cache. rawResult is the persisted aggregate of a recovered
	// sweep, decoded lazily.
	result    *SweepResult
	rawResult json.RawMessage
	// pstate is the live per-point status; recoveredDone counts the points
	// of a sweep restored terminal whose content key has a journaled result.
	pstate        []SweepPointStatus
	recoveredDone int
}

// SweepPointStatus is the live per-point progress of a sweep.
type SweepPointStatus struct {
	Index  int    `json:"index"`
	State  State  `json:"state"`
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SweepPointResult is one finished grid point in the sweep's aggregate.
type SweepPointResult struct {
	Index  int      `json:"index"`
	Alpha  *float64 `json:"alpha,omitempty"`
	Vdd    *float64 `json:"vdd,omitempty"`
	TempK  *float64 `json:"temp_k,omitempty"`
	JobID  string   `json:"job_id,omitempty"`
	Key    string   `json:"key"`
	Cached bool     `json:"cached,omitempty"`
	Warm   bool     `json:"warm,omitempty"`
	Error  string   `json:"error,omitempty"`

	Estimate Estimate  `json:"estimate"`
	Cost     CostSplit `json:"cost"`
}

// SweepResult aggregates a finished sweep. TotalSims and SimsSaved are
// derived from the deterministic point payloads, so two runs of the same
// sweep — cached or not — report identical figures.
type SweepResult struct {
	Points []SweepPointResult `json:"points"`
	// TotalSims sums every point payload's total simulation cost (what the
	// grid costs to compute once, regardless of how many points this
	// particular run answered from cache).
	TotalSims int64 `json:"total_sims"`
	// SimsSaved estimates the simulations warm seeding avoided: for every
	// warm-seeded point, the boundary-init (and, unless cloud-only, the
	// classifier warm-up) cost its nearest cold predecessor actually paid.
	SimsSaved int64 `json:"sims_saved,omitempty"`
	// CachedPoints counts points this run answered without new computation;
	// WarmPoints counts points seeded from their predecessor.
	CachedPoints int `json:"cached_points,omitempty"`
	WarmPoints   int `json:"warm_points,omitempty"`
}

// newSweep creates a queued sweep wired to the service: transitions are
// persisted and the trace joins tc — every point job joins the same ID, and
// tc's span ID (the router's dispatch span) is kept for the root sweep span.
func (s *Service) newSweep(id string, spec SweepSpec, key, tenant string, points []PointPlan, tc obsv.TraceContext) *Sweep {
	sw := &Sweep{Spec: spec, points: points, pstate: make([]SweepPointStatus, len(points))}
	for i := range sw.pstate {
		sw.pstate[i] = SweepPointStatus{Index: i, State: StateQueued}
	}
	sw.start(s, id, key, tenant, tc)
	if len(tc.TraceID) == 32 {
		sw.parentSpan = tc.SpanID
	}
	sw.onState = func(state State, errMsg string, at time.Time) { s.onSweepState(sw, state, errMsg, at) }
	return sw
}

// restoreSweep rebuilds a terminal sweep from the persistent store. A point
// counts as done iff its content key has a journaled result.
func restoreSweep(r RecoveredSweep, spec SweepSpec, points []PointPlan, results map[string]json.RawMessage) *Sweep {
	sw := &Sweep{Spec: spec, points: points, rawResult: r.Result}
	for _, p := range points {
		if _, ok := results[p.Key]; ok {
			sw.recoveredDone++
		}
	}
	sw.restore(r.ID, r.Key, r.Tenant, r.State, r.Error, r.Created, r.Started, r.Finished)
	return sw
}

// Result returns the aggregate (nil while unfinished). For sweeps recovered
// from disk it is the persisted payload decoded lazily.
func (sw *Sweep) Result() *SweepResult {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.result == nil && len(sw.rawResult) > 0 {
		var r SweepResult
		if err := json.Unmarshal(sw.rawResult, &r); err == nil {
			sw.result = &r
		}
	}
	return sw.result
}

// Cancel requests cancellation of the sweep; the controller observes it,
// cancels its in-flight points and finishes as canceled. Reports false once
// terminal.
func (sw *Sweep) Cancel() bool { return sw.requestCancel() }

// finish commits the terminal state with the aggregate (nil unless done).
// The terminal transition is published into the event ring before the done
// channel closes: SSE consumers drain the ring once more when done closes,
// so every subscriber observes the terminal "sweep" event ahead of the final
// "done" — including subscribers to a sweep torn down by DELETE.
func (sw *Sweep) finish(state State, res *SweepResult, errMsg string) {
	sw.end(state, errMsg, "", func() {
		sw.result = res
		sw.events.publish("sweep", sweepTerminal{
			ID: sw.ID, State: state, Error: errMsg, PointsDone: sw.pointsDone(), NumPoints: len(sw.points),
		})
	})
}

// sweepTerminal is the payload of the terminal "sweep" SSE event.
type sweepTerminal struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	PointsDone int    `json:"points_done"`
	NumPoints  int    `json:"num_points"`
}

// pointJobIDs returns the job IDs of points not yet terminal.
func (sw *Sweep) pointJobIDs() []string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ids := make([]string, 0, len(sw.pstate))
	for _, p := range sw.pstate {
		if p.JobID != "" && !p.State.Terminal() {
			ids = append(ids, p.JobID)
		}
	}
	return ids
}

// setPoint commits one point's progress and publishes it to SSE consumers.
func (sw *Sweep) setPoint(i int, st SweepPointStatus) {
	sw.mu.Lock()
	if i < len(sw.pstate) {
		sw.pstate[i] = st
	}
	sw.mu.Unlock()
	sw.events.publish("point", st)
}

// PointsDone counts points in a terminal state.
func (sw *Sweep) PointsDone() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.pointsDone()
}

// pointsDone counts terminal points (plus, for a restored sweep, the points
// with journaled results). The caller holds mu.
func (sw *Sweep) pointsDone() int {
	n := sw.recoveredDone
	for _, p := range sw.pstate {
		if p.State.Terminal() {
			n++
		}
	}
	return n
}

// SweepView is the JSON representation of a sweep served by the API.
type SweepView struct {
	ID         string             `json:"id"`
	State      State              `json:"state"`
	Tenant     string             `json:"tenant,omitempty"`
	Error      string             `json:"error,omitempty"`
	Key        string             `json:"key"`
	NumPoints  int                `json:"num_points"`
	PointsDone int                `json:"points_done"`
	WarmStart  bool               `json:"warm_start,omitempty"`
	CreatedAt  string             `json:"created_at"`
	StartedAt  string             `json:"started_at,omitempty"`
	FinishedAt string             `json:"finished_at,omitempty"`
	Spec       SweepSpec          `json:"spec"`
	Points     []SweepPointStatus `json:"points,omitempty"`
	Result     *SweepResult       `json:"result,omitempty"`
}

// Snapshot renders the sweep for the API; withDetail adds per-point status
// and, when finished, the aggregate result.
func (sw *Sweep) Snapshot(withDetail bool) SweepView {
	res := sw.Result() // before taking the lock (Result locks too)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	v := SweepView{
		ID:         sw.ID,
		State:      sw.state,
		Tenant:     sw.Tenant,
		Error:      sw.errMsg,
		Key:        sw.Key,
		NumPoints:  len(sw.points),
		PointsDone: sw.pointsDone(),
		WarmStart:  sw.Spec.WarmStart,
		Spec:       sw.Spec,
	}
	v.CreatedAt, v.StartedAt, v.FinishedAt = sw.stamps()
	if withDetail {
		v.Points = append([]SweepPointStatus(nil), sw.pstate...)
		v.Result = res
	}
	return v
}

func (sw *Sweep) view(detail bool) any { return sw.Snapshot(detail) }

// sweepProgress is the periodic SSE progress payload of a sweep.
type sweepProgress struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	NumPoints  int    `json:"num_points"`
	PointsDone int    `json:"points_done"`
}

func (sw *Sweep) progress() any {
	return sweepProgress{ID: sw.ID, State: sw.State(), NumPoints: len(sw.points), PointsDone: sw.PointsDone()}
}

// eventName streams ring events under their own kind: per-point progress as
// "point", the terminal transition as "sweep" (always ahead of "done").
func (sw *Sweep) eventName(kind string) string { return kind }

// runSweep is the controller: it drives every planned point through the
// regular job pipeline and assembles the aggregate. Warm sweeps run their
// points strictly sequentially — point i's spec names point i-1's result by
// content key, so there is no intra-chain parallelism to exploit; cold
// sweeps fan all points out to the worker pool at once. Either way the
// points are plain cached jobs, so a crashed or re-submitted sweep only
// recomputes what the journal and cache do not already hold.
func (s *Service) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	sw.markRunning()
	tctx := obsv.WithTrace(context.Background(), sw.trace)
	_, span := obsv.StartSpan(tctx, "sweep", obsv.S("sweep", sw.ID), obsv.I("points", int64(len(sw.points))))
	if sw.parentSpan != "" {
		span.SetAttr(obsv.S("parent_span", sw.parentSpan))
	}

	var jobs []*Job
	var firstErr error
	if sw.Spec.WarmStart {
		for i := range sw.points {
			j, err := s.submitPoint(sw, i)
			if err != nil {
				firstErr = fmt.Errorf("point %d: %w", i, err)
				break
			}
			jobs = append(jobs, j)
			if err := s.waitPoint(sw, i, j, span); err != nil {
				firstErr = fmt.Errorf("point %d (%s): %w", i, j.ID, err)
				break
			}
		}
	} else {
		for i := range sw.points {
			j, err := s.submitPoint(sw, i)
			if err != nil {
				firstErr = fmt.Errorf("point %d: %w", i, err)
				break
			}
			jobs = append(jobs, j)
		}
		for i, j := range jobs {
			if err := s.waitPoint(sw, i, j, span); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("point %d (%s): %w", i, j.ID, err)
			}
		}
	}

	if firstErr != nil {
		// Cancel whatever this sweep still has in flight, then fail. The
		// completed points are cached and journaled: re-submitting the same
		// sweep answers them instantly and resumes from the failure point.
		for _, j := range jobs {
			j.Cancel()
		}
		state := StateFailed
		if errors.Is(firstErr, context.Canceled) || sw.ctx.Err() != nil {
			state = StateCanceled
		}
		span.SetAttr(obsv.S("error", firstErr.Error()))
		span.End()
		sw.finish(state, nil, firstErr.Error()+" — completed points are cached; resubmit the sweep to resume")
		return
	}

	res := s.assembleSweep(sw, jobs)
	s.sweepPointsDone.Add(int64(len(res.Points)))
	s.sweepWarmPoints.Add(int64(res.WarmPoints))
	s.sweepSimsSaved.Add(res.SimsSaved)
	span.SetAttr(obsv.I("total_sims", res.TotalSims), obsv.I("sims_saved", res.SimsSaved))
	span.End()
	sw.finish(StateDone, res, "")
}

// submitPoint hands one planned point to the job pipeline. An active job
// with the same content key — typically a crash-recovered re-enqueue — is
// adopted instead of duplicated; a full queue is retried with backoff until
// the sweep is canceled (cold sweeps can be far larger than the queue).
func (s *Service) submitPoint(sw *Sweep, i int) (*Job, error) {
	p := sw.points[i]
	if j := s.findActiveByKey(p.Key); j != nil {
		sw.setPoint(i, SweepPointStatus{Index: i, State: j.State(), JobID: j.ID})
		return j, nil
	}
	for {
		// Point jobs join the sweep's distributed trace, so the reassembled
		// tree carries one consistent trace ID from router to engine spans.
		j, err := s.SubmitTraced(sw.Tenant, p.Spec, obsv.TraceContext{TraceID: sw.trace.ID()})
		if err == nil {
			sw.setPoint(i, SweepPointStatus{Index: i, State: j.State(), JobID: j.ID})
			return j, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			sw.setPoint(i, SweepPointStatus{Index: i, State: StateFailed, Error: err.Error()})
			return nil, err
		}
		select {
		case <-sw.ctx.Done():
			return nil, sw.ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// waitPoint blocks until the point's job is terminal (or the sweep is
// canceled), records a span for it under the sweep span, and commits the
// point status. A non-done terminal state is the point's error.
func (s *Service) waitPoint(sw *Sweep, i int, j *Job, parent *obsv.Span) error {
	start := time.Now()
	select {
	case <-j.Done():
	case <-sw.ctx.Done():
		return sw.ctx.Err()
	}
	v := j.Snapshot(false)
	sw.trace.Add("point", parent.Index(), start, time.Now(),
		obsv.I("index", int64(i)), obsv.S("job", j.ID), obsv.I("sims", v.Sims))
	st := SweepPointStatus{Index: i, State: v.State, JobID: j.ID, Cached: v.Cached, Error: v.Error}
	sw.setPoint(i, st)
	if v.State != StateDone {
		if v.Error != "" {
			return errors.New(v.Error)
		}
		return fmt.Errorf("job ended %s", v.State)
	}
	return nil
}

// findActiveByKey returns a queued or running job computing the given
// content key, if any.
func (s *Service) findActiveByKey(key string) *Job {
	return s.jobs.find(func(j *Job) bool { return j.Key == key && !j.State().Terminal() })
}

// pointResult starts a point's aggregate entry from its plan.
func pointResult(p PointPlan) SweepPointResult {
	return SweepPointResult{Index: p.Index, Alpha: p.Alpha, Vdd: p.Vdd, TempK: p.TempK, Key: p.Key, Warm: p.Warm}
}

// sweepFold accumulates finished points into a sweep's aggregate.
type sweepFold struct {
	res SweepResult
	// coldInit and coldWarmup are the boundary-init and classifier warm-up
	// costs of the last cold point.
	coldInit, coldWarmup int64
}

// add folds one finished point: its cost into the total, the cached and
// warm tallies, and for a warm point the simulations seeding saved — the
// boundary init (and, unless cloud-only, the warm-up) its nearest cold
// predecessor paid.
func (f *sweepFold) add(p PointPlan, pr SweepPointResult) {
	f.res.TotalSims += pr.Cost.Total
	if pr.Cached {
		f.res.CachedPoints++
	}
	if p.Warm {
		f.res.WarmPoints++
		f.res.SimsSaved += f.coldInit
		if !p.CloudOnly {
			f.res.SimsSaved += f.coldWarmup
		}
	} else {
		f.coldInit, f.coldWarmup = pr.Cost.Init, pr.Cost.Warmup
	}
	f.res.Points = append(f.res.Points, pr)
}

// assembleSweep folds the finished point jobs into the aggregate.
func (s *Service) assembleSweep(sw *Sweep, jobs []*Job) *SweepResult {
	f := sweepFold{res: SweepResult{Points: make([]SweepPointResult, 0, len(jobs))}}
	for i, j := range jobs {
		v := j.Snapshot(true)
		pr := pointResult(sw.points[i])
		pr.JobID, pr.Cached = j.ID, v.Cached
		var rr RunResult
		if err := json.Unmarshal(v.Result, &rr); err == nil {
			pr.Estimate, pr.Cost = rr.Estimate, rr.Cost
		}
		f.add(sw.points[i], pr)
	}
	return &f.res
}

// RunSweepLocal executes a normalized sweep in-process, without a service:
// the CLI entry point (cmd/ecripse, cmd/dutysweep) and the equivalence tests
// drive it directly. Points run sequentially in grid order; warm linkage is
// resolved from an in-memory map of this run's own payloads. runFn nil
// selects the real estimator runner.
//
// A warm sweep stops at the first point error (its successors' inputs are
// gone); a cold sweep runs every point and reports each failure in its
// point's Error field. Either way the error return joins every per-point
// failure — callers must treat a non-nil error as a failed sweep even though
// the partial aggregate is returned for inspection.
func RunSweepLocal(ctx context.Context, spec SweepSpec, runFn func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error)) (*SweepResult, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if runFn == nil {
		runFn = runSpec
	}
	payloads := make(map[string]json.RawMessage, len(points))
	hooks := runHooks{warmResolver: func(key string) (json.RawMessage, bool) {
		p, ok := payloads[key]
		return p, ok
	}}

	f := sweepFold{res: SweepResult{Points: make([]SweepPointResult, 0, len(points))}}
	var errs []error
	for _, p := range points {
		pr := pointResult(p)
		out, rerr := runFn(withRunHooks(ctx, hooks), p.Spec, &montecarlo.Counter{})
		if rerr != nil {
			pr.Error = rerr.Error()
			f.res.Points = append(f.res.Points, pr)
			errs = append(errs, fmt.Errorf("point %d: %w", p.Index, rerr))
			if spec.WarmStart {
				break // successors would need this point's warm state
			}
			continue
		}
		raw, merr := json.Marshal(out)
		if merr != nil {
			pr.Error = merr.Error()
			f.res.Points = append(f.res.Points, pr)
			errs = append(errs, fmt.Errorf("point %d: marshal: %w", p.Index, merr))
			if spec.WarmStart {
				break
			}
			continue
		}
		payloads[p.Key] = raw
		pr.Estimate, pr.Cost = out.Estimate, out.Cost
		f.add(p, pr)
	}
	return &f.res, errors.Join(errs...)
}
