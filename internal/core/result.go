package core

import (
	"fmt"

	"ecripse/internal/montecarlo"
	"ecripse/internal/stats"
)

// Result is the outcome of one ECRIPSE run: the failure-probability
// estimate, its convergence trace against the simulation counter, the cost
// breakdown across the stages, and the alternative distribution (useful for
// diagnostics and for seeding further runs).
type Result struct {
	Series   stats.Series
	Estimate stats.Estimate

	InitSims   int64 // boundary search (shared across bias conditions)
	WarmupSims int64 // classifier warm-up labels
	Stage1Sims int64 // particle-filter training labels
	Stage2Sims int64 // stage-2 uncertain-band simulations
	Classified int64 // labels answered by the classifier (no simulation)

	// Solver effort for this run.
	RootSolves  int64 // half-cell root solves spent
	SolverIters int64 // residual evaluations inside the root-search loops

	// Lane-utilization accounting for the batched indicator (0 on the
	// scalar path): kernel slots issued by the lockstep solver and the
	// slots that carried a live (unconverged) lane. Occupied/Slots is the
	// fraction of batch-kernel work spent on real residuals.
	LaneSlots    int64
	LaneOccupied int64

	// Pipelined-execution accounting for the stage-2 loop. PipelinedBatches
	// is deterministic (the number of barrier windows the pipelined driver
	// completed; 0 on the scalar path). The NS fields are
	// wall-clock overlap telemetry — generation time, barrier stall waiting
	// on generation, and settlement time — and are observational only: the
	// service layer keeps them out of content-addressed results, exactly
	// like job wall time.
	PipelinedBatches int64
	PipelineGenNS    int64
	PipelineStallNS  int64
	PipelineSettleNS int64

	// PFRounds records the stage-1 convergence diagnostics, one entry per
	// particle-filter round. Deterministic (derived from weights and
	// resampling indices only), so it is cached and persisted with the rest
	// of the result.
	PFRounds []PFRoundDiag

	Proposal *montecarlo.GMM
}

// String summarizes the run in one line.
func (r Result) String() string {
	s := fmt.Sprintf("%v  (init=%d warmup=%d stage1=%d stage2=%d classified=%d solves=%d)",
		r.Estimate, r.InitSims, r.WarmupSims, r.Stage1Sims, r.Stage2Sims, r.Classified, r.RootSolves)
	if r.LaneSlots > 0 {
		s += fmt.Sprintf(" [lanes: %.0f%% occupied]", 100*r.LaneUtilization())
	}
	if r.PipelinedBatches > 0 {
		s += fmt.Sprintf(" [pipeline: %d batches, %.0f%% overlapped]", r.PipelinedBatches, 100*r.OverlapFraction())
	}
	return s
}

// OverlapFraction is the share of stage-2 generation wall-clock hidden
// behind barrier settlement (0 when the pipelined path did not run).
func (r Result) OverlapFraction() float64 {
	return montecarlo.PipelineStats{
		GenNS: r.PipelineGenNS, StallNS: r.PipelineStallNS,
	}.OverlapFraction()
}

// LaneUtilization is LaneOccupied/LaneSlots, the live fraction of the
// batch kernel's lockstep work (0 when the batch path did not run).
func (r Result) LaneUtilization() float64 {
	if r.LaneSlots == 0 {
		return 0
	}
	return float64(r.LaneOccupied) / float64(r.LaneSlots)
}
