package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// requireResultMatch pins every deterministic field of got to want:
// estimate bits, convergence series, cost split, solver-effort counters,
// stage-1 diagnostics and proposal. Lane and pipeline counters are
// path-dependent and checked by the caller.
func requireResultMatch(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.Estimate.P) != math.Float64bits(want.Estimate.P) ||
		math.Float64bits(got.Estimate.CI95) != math.Float64bits(want.Estimate.CI95) {
		t.Fatalf("%s: estimate diverged: got %+v, want %+v", label, got.Estimate, want.Estimate)
	}
	if got.Estimate.Sims != want.Estimate.Sims {
		t.Fatalf("%s: simulation count diverged: got %d, want %d", label, got.Estimate.Sims, want.Estimate.Sims)
	}
	if !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatalf("%s: convergence series diverged:\ngot %v\nwant %v", label, got.Series, want.Series)
	}
	if got.InitSims != want.InitSims || got.WarmupSims != want.WarmupSims ||
		got.Stage1Sims != want.Stage1Sims || got.Stage2Sims != want.Stage2Sims ||
		got.Classified != want.Classified {
		t.Fatalf("%s: cost split diverged:\ngot %v\nwant %v", label, got, want)
	}
	if got.RootSolves != want.RootSolves || got.SolverIters != want.SolverIters {
		t.Fatalf("%s: solver effort diverged: got solves=%d iters=%d, want solves=%d iters=%d",
			label, got.RootSolves, got.SolverIters, want.RootSolves, want.SolverIters)
	}
	if !reflect.DeepEqual(got.PFRounds, want.PFRounds) {
		t.Fatalf("%s: stage-1 diagnostics diverged", label)
	}
	if !reflect.DeepEqual(got.Proposal.Means, want.Proposal.Means) {
		t.Fatalf("%s: proposal means diverged", label)
	}
}

// stagedCases are the six engine configurations the path-equivalence
// suites pin: plain RDF, RTN, RDF on four workers, the no-classifier
// ablation, hold mode at a non-default lane width, and write mode, whose
// batch entry falls back to the scalar solve.
var stagedCases = []struct {
	name string
	opts Options
	rtn  bool
}{
	{"rdf", Options{NIS: 4000, Directions: 64, WarmupTrain: 120, PFIters: 3, RecordEvery: 300}, false},
	{"rtn", Options{NIS: 1200, M: 5, Directions: 64, WarmupTrain: 120, PFIters: 3}, true},
	{"rdf-parallel", Options{NIS: 3000, Parallelism: 4, Directions: 64, WarmupTrain: 120, PFIters: 2}, false},
	{"noclassifier", Options{NIS: 800, NoClassifier: true, Directions: 48, PFIters: 2}, false},
	{"hold-lanes256", Options{Mode: HoldFailure, NIS: 1500, BatchLanes: 256, Directions: 48, WarmupTrain: 120, PFIters: 2}, false},
	{"write", Options{Mode: WriteFailure, NIS: 1200, Directions: 48, WarmupTrain: 120, PFIters: 2}, false},
}

// stagedSampler builds the RTN sampler a case asks for.
func stagedSampler(cell *sram.Cell, cfg rtn.Config, want bool) *rtn.Sampler {
	if !want {
		return nil
	}
	return rtn.NewSampler(cell, cfg, 0.3)
}

// TestStagedMatchesScalar pins the batched evaluation path — staged
// boundary search, warm-up labeling and particle-filter measurement, then
// pipelined stage-2 importance sampling, all settling their indicator calls
// through Indicator.FailsBatch — to the per-sample scalar path bit for bit:
// identical estimate, convergence series, cost split and solver-effort
// counters for the same seed.
func TestStagedMatchesScalar(t *testing.T) {
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	for _, tc := range stagedCases {
		t.Run(tc.name, func(t *testing.T) {
			sampler := stagedSampler(cell, cfg, tc.rtn)
			scalarOpts := tc.opts
			scalarOpts.scalarPath = true
			want := NewEngine(cell, nil, scalarOpts).Run(rand.New(rand.NewSource(91)), sampler)

			piped := NewEngine(cell, nil, tc.opts).Run(rand.New(rand.NewSource(91)), sampler)
			requireResultMatch(t, "pipelined-vs-scalar", piped, want)

			// The lane counters are the one legitimate difference: only the
			// batched path issues kernel slots. Write mode keeps the scalar
			// solver, so it is exempt.
			if want.LaneSlots != 0 {
				t.Fatalf("scalar path issued lane slots: %d", want.LaneSlots)
			}
			if tc.opts.Mode != WriteFailure && piped.LaneSlots == 0 {
				t.Fatalf("batched path issued no lane slots")
			}
			if piped.LaneOccupied > piped.LaneSlots {
				t.Fatalf("lane occupancy %d exceeds slots %d", piped.LaneOccupied, piped.LaneSlots)
			}
			// Pipeline accounting: only the pipelined path runs barrier
			// windows, exactly ceil(NIS/batch) of them.
			if want.PipelinedBatches != 0 {
				t.Fatalf("scalar path recorded pipelined batches")
			}
			if wantBatches := int64((tc.opts.NIS + stage2Batch - 1) / stage2Batch); piped.PipelinedBatches != wantBatches {
				t.Fatalf("pipelined batches = %d, want %d", piped.PipelinedBatches, wantBatches)
			}
			if piped.PipelineGenNS <= 0 {
				t.Fatalf("pipelined path recorded no generation time")
			}
		})
	}
}

// TestPipelinedParallelismMatrix pins the pipelined path to the serial
// scalar reference across worker counts 1, 2 and 8 for every engine
// configuration: one schedule, one bit pattern, at any parallelism. Run
// under -race in CI, this is the suite that licenses the pipeline's
// concurrency.
func TestPipelinedParallelismMatrix(t *testing.T) {
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	for _, tc := range stagedCases {
		t.Run(tc.name, func(t *testing.T) {
			sampler := stagedSampler(cell, cfg, tc.rtn)
			// Shrink the workloads: the matrix multiplies runs fourfold and
			// the schedule is identical at any size.
			opts := tc.opts
			opts.NIS = tc.opts.NIS / 4
			opts.Directions = 48
			opts.PFIters = 2
			scalarOpts := opts
			scalarOpts.scalarPath = true
			scalarOpts.Parallelism = 1
			want := NewEngine(cell, nil, scalarOpts).Run(rand.New(rand.NewSource(17)), sampler)
			for _, par := range []int{1, 2, 8} {
				pipedOpts := opts
				pipedOpts.Parallelism = par
				got := NewEngine(cell, nil, pipedOpts).Run(rand.New(rand.NewSource(17)), sampler)
				requireResultMatch(t, fmt.Sprintf("pipelined par=%d", par), got, want)
			}
		})
	}
}

// TestLaneUtilizationReported checks the derived utilization and its
// String rendering.
func TestLaneUtilizationReported(t *testing.T) {
	r := Result{LaneSlots: 200, LaneOccupied: 150}
	if u := r.LaneUtilization(); u != 0.75 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
	if s := r.String(); !strings.Contains(s, "lanes: 75% occupied") {
		t.Fatalf("String() = %q, missing lane utilization", s)
	}
	if u := (Result{}).LaneUtilization(); u != 0 {
		t.Fatalf("empty utilization = %v", u)
	}
}
