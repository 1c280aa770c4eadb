package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ecripse"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// estimate_cold: one library client in a closed loop. Each op builds a
// fresh estimator and runs FailureProbabilityRTN at Vdd 0.5 V, alpha 0.3,
// so boundary init and classifier warm-up are paid every time and no
// service code runs.

const (
	estimateNIS = 20000
	// estimateOpS is the op length on the reference host (2-vCPU Xeon,
	// go1.24) that sizes the op list to the run length.
	estimateOpS = 0.5
)

type estimatePlan struct {
	nis   int
	seeds []int64
}

func (p *estimatePlan) Ops() int { return len(p.seeds) }

func (p *estimatePlan) Digest() string {
	return digest("estimate_cold", p.nis, p.seeds)
}

func planEstimate(seed int64, seconds int) plan {
	return newEstimatePlan(seed, opsFor(seconds, estimateOpS), estimateNIS)
}

func newEstimatePlan(seed int64, ops, nis int) *estimatePlan {
	rng := rand.New(rand.NewSource(seed))
	p := &estimatePlan{nis: nis}
	for i := 0; i < ops; i++ {
		p.seeds = append(p.seeds, freshSeed(rng))
	}
	return p
}

type estimateSys struct {
	p    *estimatePlan
	tr   *tracer
	cell *ecripse.Cell
	cfg  ecripse.RTNConfig
}

func startEstimate(pl plan, _ string, tr *tracer) (system, error) {
	s := &estimateSys{p: pl.(*estimatePlan), tr: tr, cell: ecripse.NewCell(ecripse.VddLow)}
	s.cfg = ecripse.TableIRTN(s.cell)
	if err := s.estimate(warmUpSeed, &recorder{}); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return s, nil
}

// estimate is one op: a fresh estimator run to completion. In the timed
// phase of a traced pass the engine's phase spans go to the ledger.
func (s *estimateSys) estimate(seed int64, rec *recorder) error {
	start := time.Now()
	est := ecripse.New(s.cell, ecripse.Options{NIS: s.p.nis, Parallelism: runtime.GOMAXPROCS(0)})
	ctx := context.Background()
	var trace *obsv.Trace
	if s.tr != nil && s.tr.on.Load() {
		trace = obsv.NewTrace()
		ctx = obsv.WithTrace(ctx, trace)
	}
	res, err := est.FailureProbabilityRTNCtx(ctx, seed, s.cfg, refAlpha)
	if err != nil {
		return err
	}
	rec.latency(time.Since(start))
	if trace != nil {
		s.tr.addSpans(trace.Spans())
	}
	rec.mu.Lock()
	rec.cost.addSplit(service.CostSplit{
		Init: res.InitSims, Warmup: res.WarmupSims, Stage1: res.Stage1Sims, Stage2: res.Stage2Sims,
		Classified: res.Classified, RootSolves: res.RootSolves, SolverIters: res.SolverIters,
		LaneSlots: res.LaneSlots, LaneOccupied: res.LaneOccupied,
	})
	rec.mu.Unlock()
	return rec.estimate(refAlpha, res.Estimate.P, res.Estimate.CI95, res.Estimate.Sims)
}

func (s *estimateSys) run(rec *recorder) error {
	t0 := time.Now()
	for i, seed := range s.p.seeds {
		rec.op(fmt.Sprintf("estimate %d (seed %d)", i, seed), func() error { return s.estimate(seed, rec) })
	}
	rec.clientDone(len(s.p.seeds), time.Since(t0))
	return nil
}

func (s *estimateSys) collect() error { return nil }
func (s *estimateSys) close() error   { return nil }
