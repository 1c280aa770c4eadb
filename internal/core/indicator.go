package core

import (
	"math/rand"
	"time"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// Indicator is the failure indicator I(x) of the paper's eq. (1) for one
// cell and failure mode: it maps a point of the normalized variability
// space to per-transistor threshold shifts and reports whether the mode's
// signed margin is negative. Every estimator samples it — the ECRIPSE
// engine and the naive, SIS, statistical-blockade and subset baselines —
// so the SNM fidelity, the normalized↔physical mapping, the read/hold/write
// switch, the simulation count, the timing histogram and the solver
// telemetry are decided here and nowhere else.
//
// Every evaluated point bills one simulation to the counter and, when a
// histogram is attached, one timing observation to it; the timing never
// feeds back into a result. The scalar entry points are safe for
// concurrent use: the counter, histogram and telemetry are atomic and the
// cell is never mutated. The batch entry points reuse the indicator's
// scratch and must be called from one goroutine at a time; their margin
// work fans out across the indicator's workers.
type Indicator struct {
	cell    *sram.Cell
	sigma   linalg.Vector    // per-transistor RDF sigma [V]
	whiten  *linalg.Whitener // nil: independent per-transistor sigmas
	counter *montecarlo.Counter
	hist    *obsv.Histogram

	snm      sram.SNMOptions                             // VTC grid, hold flag, lane width, telemetry
	margin   func(sram.Shifts, *sram.SNMOptions) float64 // the mode's scalar signed margin [V]
	lockstep bool                                        // the mode has a lockstep batch kernel
	workers  int                                         // batch fan-out (default 1)
	solver   sram.SolveTelemetry
	scratch  batchScratch
}

// NewIndicator builds the indicator of cell under mode. w optionally maps
// a whitened space onto correlated physical shifts (nil: independent
// Pelgrom sigmas); c receives the simulation count (nil: a private
// counter); h, when non-nil, receives the wall-clock seconds of every
// evaluation.
func NewIndicator(cell *sram.Cell, mode FailureMode, w *linalg.Whitener, c *montecarlo.Counter, h *obsv.Histogram) *Indicator {
	if c == nil {
		c = &montecarlo.Counter{}
	}
	ind := &Indicator{
		cell:    cell,
		sigma:   cell.SigmaVth(),
		whiten:  w,
		counter: c,
		hist:    h,
		snm:     sram.SNMOptions{GridN: 24, BisectIter: 24},
		workers: 1,
	}
	ind.snm.Telemetry = &ind.solver
	// Every criterion is margin < 0: read and hold are the Seevinck SNM
	// (hold with the word line off), write is the static write margin.
	switch mode {
	case WriteFailure:
		// No lockstep write-margin solver (yet): the batch entry points
		// keep the scalar solve, parallel across samples.
		ind.margin = cell.WriteMargin
	case HoldFailure:
		ind.snm.Hold = true
		fallthrough
	default:
		ind.margin = cell.ReadSNM
		ind.lockstep = true
	}
	return ind
}

// Counter returns the counter the indicator bills its simulations to.
func (ind *Indicator) Counter() *montecarlo.Counter { return ind.counter }

// Solver returns the root-solver effort accumulated under this indicator.
func (ind *Indicator) Solver() *sram.SolveTelemetry { return &ind.solver }

// Shifts maps a normalized variability point u onto the physical
// per-transistor threshold shifts [V] the cell model takes.
func (ind *Indicator) Shifts(u linalg.Vector) sram.Shifts {
	if ind.whiten != nil {
		return sram.FromVector(ind.whiten.Unwhiten(u))
	}
	var sh sram.Shifts
	for i := range sh {
		sh[i] = u[i] * ind.sigma[i]
	}
	return sh
}

// addRTN returns x plus one RTN shift drawn from sampler on rng, expressed
// in the normalized space (a fresh vector; x is not modified). A nil
// sampler — the RDF-only flow — returns a copy of x and draws nothing.
func (ind *Indicator) addRTN(rng *rand.Rand, sampler *rtn.Sampler, x linalg.Vector) linalg.Vector {
	u := x.Clone()
	if sampler == nil {
		return u
	}
	sh := sampler.Sample(rng)
	if ind.whiten != nil {
		// In the whitened space the additive physical shift maps through
		// L⁻¹ (zero-mean Whiten).
		u.AddInPlace(ind.whiten.Whiten(sh.Vector()))
		return u
	}
	for i := range u {
		u[i] += sh[i] / ind.sigma[i]
	}
	return u
}

// marginShifts evaluates the mode's signed margin [V] at the physical
// shifts sh: one transistor-level simulation.
func (ind *Indicator) marginShifts(sh sram.Shifts) float64 {
	ind.counter.Add(1)
	if ind.hist == nil {
		return ind.margin(sh, &ind.snm)
	}
	t0 := time.Now()
	m := ind.margin(sh, &ind.snm)
	ind.hist.Observe(time.Since(t0).Seconds())
	return m
}

// Margin evaluates the signed margin [V] at the normalized point u.
func (ind *Indicator) Margin(u linalg.Vector) float64 { return ind.marginShifts(ind.Shifts(u)) }

// FailsShifts reports whether the cell fails at the physical shifts sh.
func (ind *Indicator) FailsShifts(sh sram.Shifts) bool { return ind.marginShifts(sh) < 0 }

// Fails reports whether the cell fails at the normalized point u.
func (ind *Indicator) Fails(u linalg.Vector) bool { return ind.Margin(u) < 0 }

// Value is Fails as a 0/1 montecarlo.Value.
func (ind *Indicator) Value(u linalg.Vector) float64 {
	if ind.Fails(u) {
		return 1
	}
	return 0
}

// batchScratch is the indicator's reusable batch buffer set. The batch
// entry points run single-threaded per indicator (only their interior
// margin work fans out, into disjoint sub-slices), so one scratch instance
// makes a steady-state batch allocation-free.
type batchScratch struct {
	shs     []sram.Shifts
	margins []float64
	res     []sram.SNMResult
	tallies []solverTally
}

// solverTally is a per-worker solver-telemetry accumulator, padded so that
// neighbouring workers' counters never share a cache line. The lockstep
// margin chunks bill their root-solve/iteration/lane counters here and the
// batch merges the tallies once, instead of every worker hammering the
// indicator's shared telemetry atomics mid-sweep.
type solverTally struct {
	t sram.SolveTelemetry
	_ [32]byte
}

// grow returns a length-n slice backed by buf when it fits.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FailsBatch evaluates the indicator at every normalized point of us,
// writing out[i] for us[i]; see FailsShiftsBatch.
func (ind *Indicator) FailsBatch(us []linalg.Vector, out []bool) {
	sc := &ind.scratch
	sc.shs = grow(sc.shs, len(us))
	for i, u := range us {
		sc.shs[i] = ind.Shifts(u)
	}
	ind.FailsShiftsBatch(sc.shs, out)
}

// FailsShiftsBatch evaluates the indicator at every physical shift vector
// of shs, writing out[i] for shs[i]. It bills len(shs) simulations, and
// every label is bit-identical to a FailsShifts call on the same shifts —
// the batch exists purely for throughput: the margins march through the
// lockstep SRAM solver instead of one root-solve latency chain per sample.
func (ind *Indicator) FailsShiftsBatch(shs []sram.Shifts, out []bool) {
	n := len(shs)
	if n == 0 {
		return
	}
	var t0 time.Time
	if ind.hist != nil {
		t0 = time.Now()
	}
	ind.counter.Add(int64(n))
	sc := &ind.scratch
	sc.margins = grow(sc.margins, n)
	ind.marginBatch(shs, sc.margins)
	for i, m := range sc.margins {
		out[i] = m < 0
	}
	if ind.hist != nil {
		// One observation per simulation, each billed the batch mean, so the
		// histogram's count keeps meaning "simulations" on both paths.
		ind.hist.ObserveN(time.Since(t0).Seconds()/float64(n), int64(n))
	}
}

// marginBatch evaluates the mode's signed margin [V] for every shift
// vector, chunked to the lockstep lane width; chunks spread across the
// indicator's workers. Each margin is bit-identical to the scalar margin.
// Solver telemetry accumulates in padded per-worker tallies and merges into
// the indicator's telemetry once after the fan-out.
func (ind *Indicator) marginBatch(shs []sram.Shifts, out []float64) {
	if !ind.lockstep {
		montecarlo.ParFor(montecarlo.ClampWorkers(ind.workers, len(shs)), len(shs), func(w, i int) {
			out[i] = ind.margin(shs[i], &ind.snm)
		})
		return
	}
	lanes := ind.snm.Lanes
	if lanes <= 0 {
		lanes = sram.DefaultBatchLanes
	}
	// Chunking is a pure function of (len, lanes) — never of the worker
	// count — so the lane-slot accounting (part of cached results) stays
	// parallelism-independent.
	chunks := (len(shs) + lanes - 1) / lanes
	workers := montecarlo.ClampWorkers(ind.workers, chunks)
	sc := &ind.scratch
	sc.res = grow(sc.res, len(shs))
	res := sc.res
	if len(sc.tallies) < workers {
		sc.tallies = make([]solverTally, workers)
	}
	tallies := sc.tallies
	montecarlo.ParFor(workers, chunks, func(w, ci int) {
		lo := ci * lanes
		hi := min(lo+lanes, len(shs))
		co := ind.snm
		co.Telemetry = &tallies[w].t
		ind.cell.NoiseMarginBatch(shs[lo:hi], res[lo:hi], &co)
		for i := lo; i < hi; i++ {
			out[i] = res[i].SNM()
		}
	})
	for w := 0; w < workers; w++ {
		ind.solver.Merge(&tallies[w].t)
		tallies[w].t.Reset()
	}
}
