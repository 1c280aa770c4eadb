package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/pfilter"
	"ecripse/internal/randx"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
	"ecripse/internal/svm"
)

// Engine is a reusable ECRIPSE estimator bound to one cell. The boundary
// particles and the trained classifier persist across Run calls, which is
// how the paper amortizes cost over multiple gate-bias conditions (the
// failure indicator depends only on the total threshold shift, not on the
// duty ratio, so both artifacts stay valid when alpha changes).
//
// All randomness is derived deterministically from the caller's rng: the
// sequential rng drives the control flow (round seeds, k-means, training
// shuffles), while every parallel unit of work — boundary direction, warm-up
// sample, particle candidate, importance draw — consumes its own
// counter-based substream keyed by its global index. Results are therefore
// bit-identical for any Opts.Parallelism setting.
type Engine struct {
	Cell    *sram.Cell
	Counter *montecarlo.Counter
	Opts    Options

	sigma      linalg.Vector // per-transistor RDF sigma [V]
	whiten     *linalg.Whitener
	snmOpts    *sram.SNMOptions // VTC grid of the indicator
	classifier *svm.Classifier
	initial    []linalg.Vector // shared boundary particles (normalized space)
	trustR     float64         // classifier trust radius (normalized units)
	warmed     bool            // initial came from SeedWarm, not boundary search
	startCloud []linalg.Vector // stage-1 starting cloud of the latest run (for Warm)

	// Cost accounting.
	initSims   int64
	warmupSims int64
	classified int64 // labels answered by the classifier (free); atomic
	solver     sram.SolveTelemetry

	// scratch holds the reusable batch-barrier buffers (see batchScratch);
	// barriers are single-threaded per engine, so one set suffices.
	scratch batchScratch
}

// NewEngine builds an estimator for the cell. The counter may be shared
// with other estimators for joint accounting; pass nil for a private one.
func NewEngine(cell *sram.Cell, counter *montecarlo.Counter, opts Options) *Engine {
	opts.fill()
	if counter == nil {
		counter = &montecarlo.Counter{}
	}
	e := &Engine{
		Cell:    cell,
		Counter: counter,
		Opts:    opts,
		sigma:   cell.SigmaVth(),
		snmOpts: &sram.SNMOptions{GridN: 24, BisectIter: 24},
	}
	e.snmOpts.Telemetry = &e.solver
	e.snmOpts.Lanes = opts.BatchLanes
	if opts.Covariance != nil {
		w, err := linalg.NewWhitener(linalg.NewVector(sram.NumTransistors), opts.Covariance)
		if err != nil {
			panic("core: invalid covariance: " + err.Error())
		}
		e.whiten = w
	}
	return e
}

// Sigma returns the per-transistor RDF standard deviations [V].
func (e *Engine) Sigma() linalg.Vector { return e.sigma.Clone() }

// simulate evaluates the true indicator at a *total* normalized shift
// vector u (RDF + RTN combined, in units of the RDF sigma). One call is one
// transistor-level simulation. Safe for concurrent use: the counter is
// atomic and the cell is never mutated during evaluation. When
// Opts.IndicatorHist is set the call is timed into it; the timing never
// feeds back into the result.
func (e *Engine) simulate(u linalg.Vector) bool {
	h := e.Opts.IndicatorHist
	if h == nil {
		return e.indicator(u)
	}
	t0 := time.Now()
	failed := e.indicator(u)
	h.Observe(time.Since(t0).Seconds())
	return failed
}

// shifts converts a normalized variability point into the physical
// per-transistor threshold shifts the cell model takes.
func (e *Engine) shifts(u linalg.Vector) sram.Shifts {
	if e.whiten != nil {
		return sram.FromVector(e.whiten.Unwhiten(u))
	}
	var sh sram.Shifts
	for i := range sh {
		sh[i] = u[i] * e.sigma[i]
	}
	return sh
}

// indicator is the untimed indicator body.
func (e *Engine) indicator(u linalg.Vector) bool {
	e.Counter.Add(1)
	return e.margin(e.shifts(u)) < 0
}

// margin evaluates the mode's signed margin [V]; every failure criterion is
// margin < 0 (read/hold: Seevinck SNM, write: static write margin).
func (e *Engine) margin(sh sram.Shifts) float64 {
	switch e.Opts.Mode {
	case WriteFailure:
		return e.Cell.WriteMargin(sh, e.snmOpts)
	case HoldFailure:
		return e.Cell.HoldSNM(sh, e.snmOpts)
	default:
		return e.Cell.ReadSNM(sh, e.snmOpts)
	}
}

// rtnValue computes Pfail_RTN(x) (eq. (17)) for an RDF point x: m RTN draws
// from rng added to x in the normalized space, each labeled by lab.
// sampler == nil (the RDF-only flow) reduces to a single lab(x) evaluation.
func (e *Engine) rtnValue(rng *rand.Rand, sampler *rtn.Sampler, m int, x linalg.Vector, lab func(linalg.Vector) bool) float64 {
	fails := 0
	for k := 0; k < m; k++ {
		u := x.Clone()
		if sampler != nil {
			sh := sampler.Sample(rng)
			if e.whiten != nil {
				// In the whitened space the additive physical shift maps
				// through L⁻¹ (zero-mean Whiten).
				u.AddInPlace(e.whiten.Whiten(sh.Vector()))
			} else {
				for i := range u {
					u[i] += sh[i] / e.sigma[i]
				}
			}
		}
		if lab(u) {
			fails++
		}
	}
	return float64(fails) / float64(m)
}

// Init performs the paper's step (1): boundary search along random
// directions (plus classifier warm-up training around the boundary). It is
// called implicitly by Run when needed; calling it explicitly lets several
// bias conditions share one initialization, as in Fig. 7(b). Both loops run
// under Opts.Parallelism workers; each direction and each warm-up sample
// draws from its own substream, so the outcome depends only on rng's state.
func (e *Engine) Init(rng *rand.Rand) {
	e.InitCtx(context.Background(), rng)
}

// InitCtx is Init with span recording: when ctx carries an obsv.Trace the
// boundary search and classifier warm-up appear as child spans. Randomness
// consumption is identical to Init.
func (e *Engine) InitCtx(ctx context.Context, rng *rand.Rand) {
	if e.initial != nil {
		return
	}
	start := e.Counter.Count()
	dim := sram.NumTransistors
	bseed := rng.Int63()
	_, bspan := obsv.StartSpan(ctx, "boundary.init")
	if e.Opts.scalarPath {
		e.initial = pfilter.BoundaryInitPar(bseed, dim, e.Opts.Directions, e.Opts.RMax, e.Opts.RTol, e.simulate, e.Opts.Parallelism)
	} else {
		e.initial = pfilter.BoundaryInitBatch(bseed, dim, e.Opts.Directions, e.Opts.RMax, e.Opts.RTol, e.simulateBatch, e.Opts.Parallelism)
	}
	if len(e.initial) == 0 {
		// Pathological cell: fall back to a ring at RMax so downstream code
		// stays functional; the estimate will come out ~0.
		for k := 0; k < e.Opts.Filters; k++ {
			e.initial = append(e.initial, randx.SphereDirection(rng, dim).Scale(e.Opts.RMax))
		}
	}
	e.initSims = e.Counter.Count() - start
	bspan.SetAttr(obsv.I("directions", int64(e.Opts.Directions)), obsv.I("found", int64(len(e.initial))), obsv.I("sims", e.initSims))
	bspan.End()

	// Trust the classifier only up to just beyond the farthest boundary
	// point it will be trained around; the tail beyond carries little
	// probability mass, so simulating it is cheap and removes the bias of
	// polynomial extrapolation.
	for _, p := range e.initial {
		if r := p.Norm(); r > e.trustR {
			e.trustR = r
		}
	}
	e.trustR *= 1.1

	if e.Opts.NoClassifier {
		return
	}
	// Classifier warm-up: jittered boundary points (balanced labels), plus
	// scaled-in pass points and scaled-out failure points so the polynomial
	// does not wander far from the data. Simulation of the warm-up set is
	// parallel (slot writes only); training stays sequential on rng.
	_, wspan := obsv.StartSpan(ctx, "blockade.train")
	start = e.Counter.Count()
	e.classifier = svm.NewClassifier(svm.NewPolyFeatures(dim, e.Opts.PolyDegree, 0), e.Opts.Lambda)
	wseed := rng.Int63()
	xs := make([]linalg.Vector, e.Opts.WarmupTrain)
	ys := make([]bool, e.Opts.WarmupTrain)
	workers := montecarlo.ClampWorkers(e.Opts.Parallelism, e.Opts.WarmupTrain)
	streams := randx.NewStreams(wseed, workers)
	montecarlo.ParFor(workers, e.Opts.WarmupTrain, func(w, i int) {
		r := streams.At(w, uint64(i))
		base := e.initial[r.Intn(len(e.initial))]
		var u linalg.Vector
		switch i % 4 {
		case 0, 1: // near boundary
			u = base.Add(randx.NormalVector(r, dim).Scale(e.Opts.Kernel))
		case 2: // interior (expected pass)
			u = base.Scale(0.3 + 0.4*r.Float64())
		default: // exterior (expected fail)
			u = base.Scale(1.2 + 0.5*r.Float64())
		}
		xs[i] = u
		if e.Opts.scalarPath {
			ys[i] = e.simulate(u)
		}
	})
	if !e.Opts.scalarPath {
		// The parallel loop above only staged the points (consuming exactly
		// the scalar path's randomness); label them in one batched sweep.
		e.simulateBatch(xs, ys)
	}
	e.classifier.Train(rng, xs, ys, e.Opts.Epochs)
	e.warmupSims = e.Counter.Count() - start
	wspan.SetAttr(obsv.I("train_points", int64(e.Opts.WarmupTrain)), obsv.I("sims", e.warmupSims))
	wspan.End()
}

// classifierOff reports whether this run labels everything with the true
// simulator: the NoClassifier ablation, or a cloud-only warm seed (SeedWarm
// without a classifier skips InitCtx, so none was ever trained). Stable for
// the whole run — the classifier is only created in InitCtx or SeedWarm,
// never mid-run.
func (e *Engine) classifierOff() bool {
	return e.Opts.NoClassifier || e.classifier == nil
}

// SetInitial installs boundary particles from another engine (shared
// initialization across bias conditions). The classifier is not shared.
func (e *Engine) SetInitial(initial []linalg.Vector) {
	e.initial = make([]linalg.Vector, len(initial))
	for i, p := range initial {
		e.initial[i] = p.Clone()
	}
}

// Initial returns the boundary particles found by Init (nil before Init).
func (e *Engine) Initial() []linalg.Vector { return e.initial }

// Run executes the full two-stage flow. sampler selects the RTN model
// (nil = RDF-only, the Fig. 6 configuration).
func (e *Engine) Run(rng *rand.Rand, sampler *rtn.Sampler) Result {
	res, _ := e.RunCtx(context.Background(), rng, sampler)
	return res
}

// RunCtx is Run with cancellation. The context is checked between
// particle-filter rounds and at stage-2 batch barriers; when it fires, the
// run stops cleanly at the next checkpoint — letting the in-flight batch
// complete — and the partial Result (whatever Series and cost split
// accumulated so far) is returned together with ctx.Err(). Batch membership
// does not depend on scheduling, so even budget-stopped partial results are
// deterministic — the property the service-layer result cache relies on.
func (e *Engine) RunCtx(ctx context.Context, rng *rand.Rand, sampler *rtn.Sampler) (Result, error) {
	start := e.Counter.Count()
	classifiedStart := atomic.LoadInt64(&e.classified)
	solvesStart, itersStart := e.solver.Totals()
	laneSlotsStart, laneOccStart := e.solver.LaneTotals()
	// Telemetry carriers, resolved once: spans record the phase timeline,
	// the emitter streams convergence diagnostics, the health monitor
	// evaluates the statistical watchdog rules. All are nil/no-op when the
	// context carries none, and all operate strictly at phase/round/batch
	// barriers — never inside the sample loops. Health evaluation reads
	// deterministic diagnostics only and consumes no randomness, so result
	// bits are identical with or without a monitor attached.
	emit := obsv.EmitterFrom(ctx)
	hm := obsv.HealthFrom(ctx)
	e.InitCtx(ctx, rng)

	m := 1
	if sampler != nil {
		m = e.Opts.M
	}
	workers := e.Opts.Parallelism
	lab := newBatchLabeler(e)
	lab.countFlips = hm != nil

	// Stage 1: particle-filter estimation of the alternative distribution.
	// Each round is one batch: candidates are predicted and measured in
	// parallel on per-index substreams against the frozen classifier, then
	// the deferred label observations replay in index order at the barrier
	// before resampling.
	stage1Start := e.Counter.Count()
	weight := func(r *rand.Rand, idx int, x linalg.Vector) float64 {
		v := e.rtnValue(r, sampler, m, x, func(u linalg.Vector) bool {
			return lab.labelStage1(r, idx, u)
		})
		if v <= 0 {
			return 0
		}
		return v * randx.StdNormalPDF(x)
	}
	pfOpts := pfilter.Options{
		Particles: e.Opts.Particles,
		Filters:   e.Opts.Filters,
		KernelStd: e.Opts.Kernel,
	}
	var ens *pfilter.Ensemble
	if e.warmed {
		// A warm-seeded initial set is a neighbor point's starting cloud in
		// Particles() order; rebuilding it positionally preserves the original
		// per-filter grouping and consumes no randomness (there is no k-means
		// to run — the lobes were separated by the exporting engine).
		ens = pfilter.Warm(pfOpts, e.initial)
	} else {
		ens = pfilter.New(rng, pfOpts, e.initial)
	}
	// Snapshot the grouped starting cloud for Warm export. Deliberately the
	// pre-iteration cloud, not the final one: resampling collapses particle
	// diversity, and chaining collapsed clouds across sweep points compounds
	// into an importance proposal that misses failure mass (a systematic
	// underestimate). The starting cloud is the boundary-initialization
	// knowledge the paper shares across bias conditions (Fig. 7(b)) — it
	// rides a warm chain unchanged.
	startParticles := ens.Particles()
	e.startCloud = make([]linalg.Vector, len(startParticles))
	for i, p := range startParticles {
		e.startCloud[i] = p.Clone()
	}
	perRound := ens.NumFilters() * e.Opts.Particles
	var sv1 *stagedEval
	if !e.Opts.scalarPath {
		sv1 = newStagedEval(e, lab, sampler, m, true, perRound)
	}
	var pfRounds []PFRoundDiag
	var flipRep, flipDis int64 // labeler flip counters as of the last boundary
	for it := 0; it < e.Opts.PFIters && ctx.Err() == nil; it++ {
		roundSeed := rng.Int63()
		lab.begin(perRound)
		_, rspan := obsv.StartSpan(ctx, "pf.round", obsv.I("round", int64(it)))
		var recs []pfilter.StepRecord
		if sv1 != nil {
			recs = ens.StepParStaged(roundSeed, sv1, func(scored int) { lab.flushRange(0, scored) }, workers)
		} else {
			recs = ens.StepPar(roundSeed, weight, func(scored int) { lab.flushRange(0, scored) }, workers)
		}
		diag := PFRoundDiag{Round: it, Sims: e.Counter.Count() - start, Filters: make([]FilterDiag, len(recs))}
		for fi, rec := range recs {
			diag.Filters[fi] = NewFilterDiag(rec)
		}
		pfRounds = append(pfRounds, diag)
		if rspan != nil {
			minESS, maxFrac, minUnique := RoundSummary(diag.Filters)
			rspan.SetAttr(
				obsv.F("ess", minESS),
				obsv.F("max_weight_frac", maxFrac),
				obsv.I("unique", int64(minUnique)),
				obsv.I("filters", int64(len(diag.Filters))),
			)
			rspan.End()
		}
		if emit != nil {
			emit("pf_round", diag)
		}
		if hm != nil {
			hm.ObservePFRound(it, HealthFilters(diag.Filters))
			hm.ObserveFlips("pf", it, lab.flipReplayed-flipRep, lab.flipDisagree-flipDis)
			flipRep, flipDis = lab.flipReplayed, lab.flipDisagree
		}
	}
	stage1Sims := e.Counter.Count() - stage1Start

	// Stage 2: importance sampling from the particle GMM (eqs. (18), (19)),
	// defensively mixed with the nominal distribution to bound the weights.
	// Draw k consumes substream (seed2, k); classifier updates replay at
	// stage2Batch barriers.
	stage2Start := e.Counter.Count()
	q := ens.PoolGMM(nil, 600)
	proposal := &montecarlo.DefensiveMixture{Q: q, Rho: e.Opts.Rho, Dim: sram.NumTransistors}
	seed2 := rng.Int63()
	lab.begin(e.Opts.NIS)
	value := func(r *rand.Rand, k int, x linalg.Vector) float64 {
		return e.rtnValue(r, sampler, m, x, func(u linalg.Vector) bool {
			return lab.labelStage2(k, u)
		})
	}
	_, s2span := obsv.StartSpan(ctx, "stage2.is", obsv.I("n_is", int64(e.Opts.NIS)))
	var onBatch func(samples int, pt stats.Point)
	if emit != nil || hm != nil {
		barrier := 0
		onBatch = func(samples int, pt stats.Point) {
			// Barrier code: single-threaded in every driver, always after the
			// batch's Flush, so the flip deltas line up across paths.
			if emit != nil {
				emit("is_batch", newISBatchDiag(samples, pt))
			}
			if hm != nil {
				hm.ObserveISBatch(samples, pt.P, pt.CI95)
				hm.ObserveFlips("is", barrier, lab.flipReplayed-flipRep, lab.flipDisagree-flipDis)
				flipRep, flipDis = lab.flipReplayed, lab.flipDisagree
			}
			barrier++
		}
	}
	po := montecarlo.ParOptions{
		Seed:    seed2,
		Workers: workers,
		Batch:   stage2Batch,
		Flush:   lab.flushRange,
		OnBatch: onBatch,
	}
	var series stats.Series
	var pipe montecarlo.PipelineStats
	if e.Opts.scalarPath {
		series = montecarlo.ImportanceSamplePar(ctx, proposal, value, e.Opts.NIS, po, e.Counter, e.Opts.RecordEvery)
	} else {
		// Pipelined execution: the ring spans two batches so batch k+1 can
		// generate its classifier-independent draws while batch k settles;
		// scoring replays after the flush barrier, so the bits match the
		// scalar path.
		pv := newStagedEval(e, lab, sampler, m, false, 2*stage2Batch)
		po.PipeStats = &pipe
		series = montecarlo.ImportanceSampleParPipelined(ctx, proposal, pv, e.Opts.NIS, po, e.Counter, e.Opts.RecordEvery)
	}
	stage2Sims := e.Counter.Count() - stage2Start
	if hm != nil && pipe.Batches > 0 {
		// Wall-clock rule: flows to the observer/metrics only, never into
		// the deterministic report (see obsv.HealthMonitor.ObservePipeline).
		hm.ObservePipeline(pipe.Batches, pipe.GenNS, pipe.StallNS)
	}
	if s2span != nil {
		fin := series.Final()
		s2span.SetAttr(obsv.F("p", fin.P), obsv.F("ci_half", fin.CI95), obsv.I("sims", stage2Sims))
		s2span.End()
	}

	fin := series.Final()
	solves, iters := e.solver.Totals()
	laneSlots, laneOcc := e.solver.LaneTotals()
	return Result{
		Series: series,
		Estimate: stats.Estimate{
			P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr,
			N: e.Opts.NIS, Sims: e.Counter.Count() - start,
		},
		InitSims:         e.initSims,
		WarmupSims:       e.warmupSims,
		Stage1Sims:       stage1Sims,
		Stage2Sims:       stage2Sims,
		Classified:       atomic.LoadInt64(&e.classified) - classifiedStart,
		RootSolves:       solves - solvesStart,
		SolverIters:      iters - itersStart,
		LaneSlots:        laneSlots - laneSlotsStart,
		LaneOccupied:     laneOcc - laneOccStart,
		PipelinedBatches: pipe.Batches,
		PipelineGenNS:    pipe.GenNS,
		PipelineStallNS:  pipe.StallNS,
		PipelineSettleNS: pipe.SettleNS,
		PFRounds:         pfRounds,
		Proposal:         q,
	}, ctx.Err()
}
