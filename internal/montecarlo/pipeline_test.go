package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/linalg"
)

// pipelinedRule implements PipelinedValue over ruleValue: Generate stages
// the sample's uniform (classifier-free half), Score only marks the slot
// (the rule has no frozen-state decisions). The ring spans two batches, as
// the pipelined contract requires.
type pipelinedRule struct {
	us     []float64
	scored []bool
}

func (s *pipelinedRule) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	s.us[k%len(s.us)] = rng.Float64()
	s.scored[k%len(s.us)] = false
}

func (s *pipelinedRule) Score(w, k int) {
	s.scored[k%len(s.us)] = true
}

func (s *pipelinedRule) Resolve(lo, hi int) {
	for k := lo; k < hi; k++ {
		if !s.scored[k%len(s.us)] {
			panic("resolve before score")
		}
	}
}

func (s *pipelinedRule) Value(k int, x linalg.Vector) float64 {
	return ruleValue(s.us[k%len(s.us)], x)
}

var _ PipelinedValue = (*pipelinedRule)(nil)

// TestImportanceSampleParPipelinedMatchesScalar pins the double-buffered
// pipelined driver to ImportanceSamplePar over an equivalent IndexedValue:
// same series bit for bit, at lengths that exercise partial final batches
// and at several worker counts.
func TestImportanceSampleParPipelinedMatchesScalar(t *testing.T) {
	dim := 4
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1.5)}
	scalar := func(rng *rand.Rand, k int, x linalg.Vector) float64 {
		return ruleValue(rng.Float64(), x)
	}
	for _, n := range []int{100, 256, 700} {
		for _, workers := range []int{1, 3} {
			var c Counter
			want := ImportanceSamplePar(context.Background(), q, scalar,
				n, ParOptions{Seed: 5, Workers: workers, Batch: 128}, &c, 64)
			pv := &pipelinedRule{us: make([]float64, 256), scored: make([]bool, 256)}
			var c2 Counter
			var ps PipelineStats
			got := ImportanceSampleParPipelined(context.Background(), q, pv,
				n, ParOptions{Seed: 5, Workers: workers, Batch: 128, PipeStats: &ps}, &c2, 64)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: pipelined series diverged\npipelined %v\nscalar %v", n, workers, got, want)
			}
			wantBatches := int64((n + 127) / 128)
			if ps.Batches != wantBatches {
				t.Fatalf("n=%d: %d pipelined batches, want %d", n, ps.Batches, wantBatches)
			}
			if ps.GenNS <= 0 {
				t.Fatalf("n=%d: no generation time recorded", n)
			}
		}
	}
}

// TestImportanceSampleParPipelinedWorkerInvariance pins the pipelined
// driver's series across worker counts (the CI determinism suite runs this
// under the race detector).
func TestImportanceSampleParPipelinedWorkerInvariance(t *testing.T) {
	dim := 3
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1.2)}
	run := func(workers int) interface{} {
		pv := &pipelinedRule{us: make([]float64, 512), scored: make([]bool, 512)}
		var c Counter
		return ImportanceSampleParPipelined(context.Background(), q, pv,
			1000, ParOptions{Seed: 11, Workers: workers}, &c, 100)
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: series diverged from serial run", workers)
		}
	}
}

// TestPipelinedCancellation checks that a cancelled pipelined run awaits
// its in-flight generation and returns a partial series, like the scalar
// driver.
func TestPipelinedCancellation(t *testing.T) {
	dim := 2
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	pv := &countingPipelined{onGenerate: func() {
		n++
		if n == 300 {
			cancel()
		}
	}}
	pv.us = make([]float64, 512)
	pv.scored = make([]bool, 512)
	var c Counter
	series := ImportanceSampleParPipelined(ctx, q, pv, 10000, ParOptions{Seed: 3, Workers: 1}, &c, 0)
	if len(series) == 0 {
		t.Fatalf("cancelled run lost its partial series")
	}
	if fin := series.Final(); fin.P < 0 || math.IsNaN(fin.P) {
		t.Fatalf("bad final point %v", fin)
	}
	if n >= 10000 {
		t.Fatalf("cancellation did not stop the run")
	}
}

type countingPipelined struct {
	pipelinedRule
	onGenerate func()
}

func (s *countingPipelined) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	s.onGenerate()
	s.pipelinedRule.Generate(rng, k, x)
}

// TestPipelineStatsOverlapFraction checks the derived overlap share and its
// clamping.
func TestPipelineStatsOverlapFraction(t *testing.T) {
	cases := []struct {
		ps   PipelineStats
		want float64
	}{
		{PipelineStats{}, 0},
		{PipelineStats{GenNS: 100, StallNS: 25}, 0.75},
		{PipelineStats{GenNS: 100, StallNS: 0}, 1},
		{PipelineStats{GenNS: 100, StallNS: 250}, 0}, // stall beyond gen clamps
	}
	for _, tc := range cases {
		if got := tc.ps.OverlapFraction(); got != tc.want {
			t.Fatalf("OverlapFraction(%+v) = %v, want %v", tc.ps, got, tc.want)
		}
	}
}

// TestTotalPipelineStats checks that runs fold into the process-wide tally.
func TestTotalPipelineStats(t *testing.T) {
	before := TotalPipelineStats()
	dim := 2
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1)}
	pv := &pipelinedRule{us: make([]float64, 512), scored: make([]bool, 512)}
	var c Counter
	ImportanceSampleParPipelined(context.Background(), q, pv, 600, ParOptions{Seed: 9, Workers: 2}, &c, 0)
	after := TotalPipelineStats()
	if after.Batches-before.Batches != 3 {
		t.Fatalf("global batch count advanced by %d, want 3", after.Batches-before.Batches)
	}
	if after.GenNS <= before.GenNS {
		t.Fatalf("global generation time did not advance")
	}
}
