package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"ecripse"
	"ecripse/internal/service"
)

// sweep_warm: one HTTP client posts 9-point warm-chained alpha sweeps
// through the router and follows each to its SSE "done" event, then reads
// the stored aggregate and every point job back.

var sweepAlphas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

const (
	sweepN = 20000
	sweepM = 5
	// sweepOpS is the op length on the reference host.
	sweepOpS = 1.4
)

type sweepPlan struct {
	n, m  int
	seeds []int64
}

func (p *sweepPlan) Ops() int { return len(p.seeds) }

func (p *sweepPlan) Digest() string {
	return digest("sweep_warm", p.n, p.m, sweepAlphas, p.seeds)
}

func planSweep(seed int64, seconds int) plan {
	return newSweepPlan(seed, opsFor(seconds, sweepOpS), sweepN, sweepM)
}

func newSweepPlan(seed int64, ops, n, m int) *sweepPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &sweepPlan{n: n, m: m}
	for i := 0; i < ops; i++ {
		p.seeds = append(p.seeds, freshSeed(rng))
	}
	return p
}

func (p *sweepPlan) spec(seed int64) service.SweepSpec {
	return service.SweepSpec{
		Base: service.JobSpec{
			Vdd: ecripse.VddLow, RTN: true, Seed: seed, N: p.n, M: p.m,
			Parallelism: runtime.GOMAXPROCS(0),
		},
		Alpha:     &service.Axis{Values: sweepAlphas},
		WarmStart: true,
	}
}

type sweepSys struct {
	*topology
	p   *sweepPlan
	ids []string // completed sweeps, for the traced ledger
}

func startSweep(pl plan, dir string, tr *tracer) (system, error) {
	t, err := startTopology(dir, tr)
	if err != nil {
		return nil, err
	}
	s := &sweepSys{topology: t, p: pl.(*sweepPlan)}
	if err := s.sweep(warmUpSeed, &recorder{}); err != nil {
		_ = t.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	s.ids = nil
	return s, nil
}

// sweep is one op: submit, follow to done, check the aggregate, then read
// the stored sweep and each point job back.
func (s *sweepSys) sweep(seed int64, rec *recorder) error {
	body, err := json.Marshal(s.p.spec(seed))
	if err != nil {
		return err
	}
	start := time.Now()
	status, resp, err := s.cl.call(http.MethodPost, "/v1/sweeps", body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/sweeps: status %d: %s", status, resp)
	}
	var sub service.SweepView
	if err := json.Unmarshal(resp, &sub); err != nil {
		return err
	}
	done, err := s.cl.waitDone("/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		return err
	}
	rec.latency(time.Since(start))
	var view service.SweepView
	if err := json.Unmarshal(done, &view); err != nil {
		return err
	}
	if err := checkSweep(view); err != nil {
		return err
	}
	s.ids = append(s.ids, sub.ID)

	t0 := time.Now()
	status, resp, err = s.cl.call(http.MethodGet, "/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		return err
	}
	rec.read(time.Since(t0))
	if status != http.StatusOK {
		return fmt.Errorf("GET sweep %s: status %d", sub.ID, status)
	}
	var stored service.SweepView
	if err := json.Unmarshal(resp, &stored); err != nil {
		return err
	}
	if err := checkSweep(stored); err != nil {
		return fmt.Errorf("stored sweep: %w", err)
	}
	for i, pt := range view.Result.Points {
		t0 := time.Now()
		status, resp, err := s.cl.call(http.MethodGet, "/v1/jobs/"+pt.JobID, nil)
		if err != nil {
			return err
		}
		rec.read(time.Since(t0))
		var jv service.View
		if status != http.StatusOK || json.Unmarshal(resp, &jv) != nil || jv.State != service.StateDone {
			return fmt.Errorf("point %d job %s: status %d state %q", i, pt.JobID, status, jv.State)
		}
		var rr service.RunResult
		if err := json.Unmarshal(jv.Result, &rr); err != nil {
			return fmt.Errorf("point %d result: %w", i, err)
		}
		if rr.Estimate.P != pt.Estimate.P || rr.Estimate.CI95 != pt.Estimate.CI95 {
			return fmt.Errorf("point %d: job result P=%v differs from sweep aggregate P=%v", i, rr.Estimate.P, pt.Estimate.P)
		}
	}
	for _, pt := range view.Result.Points {
		if err := rec.estimate(*pt.Alpha, pt.Estimate.P, pt.Estimate.CI95, pt.Cost.Total); err != nil {
			return fmt.Errorf("point alpha %v: %w", *pt.Alpha, err)
		}
		rec.mu.Lock()
		rec.cost.addSplit(pt.Cost)
		rec.mu.Unlock()
	}
	return nil
}

// checkSweep validates a finished sweep: done, 9 points in alpha order, and
// every point after the first seeded from its predecessor.
func checkSweep(v service.SweepView) error {
	if v.State != service.StateDone || v.Result == nil {
		return fmt.Errorf("sweep %s: state %q (error %q)", v.ID, v.State, v.Error)
	}
	pts := v.Result.Points
	if len(pts) != len(sweepAlphas) {
		return fmt.Errorf("sweep %s: %d points, want %d", v.ID, len(pts), len(sweepAlphas))
	}
	for i, pt := range pts {
		switch {
		case pt.Error != "":
			return fmt.Errorf("sweep %s point %d: %s", v.ID, i, pt.Error)
		case pt.Alpha == nil || *pt.Alpha != sweepAlphas[i]:
			return fmt.Errorf("sweep %s point %d: wrong alpha", v.ID, i)
		case i > 0 && !pt.Warm:
			return fmt.Errorf("sweep %s point %d: not warm-seeded", v.ID, i)
		case pt.Cached:
			return fmt.Errorf("sweep %s point %d: answered from cache, want computed", v.ID, i)
		}
	}
	return nil
}

func (s *sweepSys) run(rec *recorder) error {
	s.counted(func() {
		t0 := time.Now()
		for i, seed := range s.p.seeds {
			rec.op(fmt.Sprintf("sweep %d (seed %d)", i, seed), func() error { return s.sweep(seed, rec) })
		}
		rec.clientDone(len(s.p.seeds), time.Since(t0))
	})
	return nil
}

func (s *sweepSys) collect() error {
	var paths []string
	for _, id := range s.ids {
		paths = append(paths, "/v1/sweeps/"+id+"/trace")
	}
	return s.ledger(paths)
}
