package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
	"ecripse/internal/subset"
)

// MethodRow is one estimator's result in the cross-method comparison.
type MethodRow struct {
	Name     string
	Estimate stats.Estimate
}

// MethodsResult compares every estimator in the repository on the same
// problem: the RDF-only read-failure probability of the Table I cell.
type MethodsResult struct {
	Vdd       float64
	Reference float64 // naive MC at the largest budget, the ground truth
	Rows      []MethodRow
}

// Methods runs the comparison. It is the "survey table" that situates
// ECRIPSE among naive MC, quasi-MC, sequential importance sampling [8],
// statistical blockade [12] and subset simulation.
func Methods(seed int64, scale Scale, vdd float64) MethodsResult {
	var nNaive, nisSIS, nBlockade, nSubset, nisEcripse int
	switch scale {
	case Smoke:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 20000, 5000, 15000, 1000, 40000
	case Default:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 120000, 30000, 80000, 2000, 200000
	case Full:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 500000, 100000, 300000, 4000, 600000
	}
	cell := sram.NewCell(vdd)
	// Each baseline bills its own fresh indicator.
	newInd := func() *core.Indicator { return core.NewIndicator(cell, core.ReadFailure, nil, nil, nil) }

	out := MethodsResult{Vdd: vdd}

	// Naive MC (also the reference).
	{
		ind := newInd()
		x := make(linalg.Vector, sram.NumTransistors)
		trial := func(r *rand.Rand) bool {
			for i := range x {
				x[i] = r.NormFloat64()
			}
			return ind.Fails(x)
		}
		series := montecarlo.Naive(rand.New(rand.NewSource(seed)), trial, nNaive, ind.Counter(), 0)
		fin := series.Final()
		est := stats.Estimate{P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: nNaive, Sims: ind.Counter().Count()}
		out.Reference = est.P
		out.Rows = append(out.Rows, MethodRow{"naive MC", est})
	}

	// Quasi-MC naive (Halton).
	{
		ind := newInd()
		series := montecarlo.NaiveQMC(sram.NumTransistors, ind.Value, nNaive, ind.Counter(), 0)
		fin := series.Final()
		out.Rows = append(out.Rows, MethodRow{"quasi-MC (Halton)",
			stats.Estimate{P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: nNaive, Sims: ind.Counter().Count()}})
	}

	// Conventional SIS [8].
	{
		ind := newInd()
		res := sis.Estimate(rand.New(rand.NewSource(seed+1)), sram.NumTransistors,
			ind.Value, ind.Counter(), &sis.Options{NIS: nisSIS}, nil)
		out.Rows = append(out.Rows, MethodRow{"sequential IS [8]", res.Estimate})
	}

	// Statistical blockade [12].
	{
		ind := newInd()
		res := blockade.Estimate(rand.New(rand.NewSource(seed+2)), sram.NumTransistors,
			ind.Fails, ind.Counter(), nBlockade, nil)
		out.Rows = append(out.Rows, MethodRow{"statistical blockade [12]", res.Estimate})
	}

	// Subset simulation.
	{
		res := subset.Estimate(rand.New(rand.NewSource(seed+3)), sram.NumTransistors,
			newInd().Margin, &subset.Options{N: nSubset})
		out.Rows = append(out.Rows, MethodRow{"subset simulation", res.Estimate})
	}

	// ECRIPSE.
	{
		res := core.RDFOnly(rand.New(rand.NewSource(seed+4)), cell, core.Options{NIS: nisEcripse})
		out.Rows = append(out.Rows, MethodRow{"ECRIPSE (proposed)", res.Estimate})
	}
	return out
}

// Write renders the comparison table.
func (r MethodsResult) Write(w io.Writer) {
	fmt.Fprintf(w, "# estimator comparison, RDF-only read failure, Vdd=%.2f V (reference %.3e)\n", r.Vdd, r.Reference)
	fmt.Fprintf(w, "%-28s %12s %12s %8s %10s\n", "# method", "Pfail", "CI95", "relerr", "sims")
	for _, row := range r.Rows {
		e := row.Estimate
		fmt.Fprintf(w, "%-28s %12.4e %12.4e %8.3f %10d\n", row.Name, e.P, e.CI95, e.RelErr, e.Sims)
	}
}
