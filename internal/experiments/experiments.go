// Package experiments contains one driver per table/figure of the paper's
// evaluation (Section IV). Each driver runs the corresponding workload on
// the library and renders the same rows/series the paper reports, at a
// selectable scale so that command-line runs can be thorough while unit
// tests and benchmarks stay fast.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ecripse/internal/core"
	"ecripse/internal/linalg"
	"ecripse/internal/pfilter"
	"ecripse/internal/randx"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
)

// Scale selects the workload size.
type Scale int

const (
	// Smoke is sized for unit tests and testing.B benchmarks.
	Smoke Scale = iota
	// Default is sized for interactive command-line runs (seconds–minutes).
	Default
	// Full approaches the paper's sample counts (minutes).
	Full
)

// ParseScale maps a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return Smoke, nil
	case "default", "":
		return Default, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want smoke, default or full)", s)
}

// TableI renders the experimental conditions (the paper's Table I plus the
// two documented calibration constants of this reproduction).
func TableI(w io.Writer) {
	cell := sram.NewCell(0.7)
	fmt.Fprintln(w, "Table I — experimental conditions")
	fmt.Fprintf(w, "  AVTH (Pelgrom)      : 500 mV·nm (x%.1f calibration -> %.0f mV·nm effective)\n",
		cell.CalK, cell.CalK*500)
	fmt.Fprintf(w, "  Channel length      : %.0f nm\n", sram.ChannelLength*1e9)
	fmt.Fprintf(w, "  Channel width       : load %.0f / driver %.0f / access %.0f nm\n",
		sram.LoadWidth*1e9, sram.DriverWidth*1e9, sram.AccessWidth*1e9)
	fmt.Fprintf(w, "  tox                 : %.2f nm\n", cell.Devs[sram.D1].Tox*1e9)
	cfg := rtn.TableIConfig(cell)
	fmt.Fprintf(w, "  lambda              : %.0e nm^-2\n", cfg.Lambda/1e18)
	fmt.Fprintf(w, "  tau_e on/off        : %.2f / %.2f\n", cfg.TauOnE, cfg.TauOffE)
	fmt.Fprintf(w, "  tau_c on/off        : %.2f / %.2f\n", cfg.TauOnC, cfg.TauOffC)
	fmt.Fprintf(w, "  RTN amplitude boost : x%.1f (substitution calibration, DESIGN.md §2)\n", rtn.AmpBoost)
	sig := cell.SigmaVth()
	fmt.Fprintf(w, "  sigma(Vth)          : load %.1f mV, driver/access %.1f mV\n",
		sig[sram.L1]*1e3, sig[sram.D1]*1e3)
}

// Fig4Result carries 2-D particle snapshots for the three panels of Fig. 4.
type Fig4Result struct {
	Initial    []linalg.Vector
	Candidates []linalg.Vector
	Weights    []float64
	Resampled  []linalg.Vector
	// Diag tracks the ensemble's convergence round by round (ESS, weight
	// concentration, resampling diversity per lobe).
	Diag []core.PFRoundDiag
}

// Fig4 reproduces the particle-filter tracking example on a 2-D slice of
// the variability space (ΔVth of D1 and A1, all other devices nominal).
func Fig4(seed int64) Fig4Result {
	cell := sram.NewCell(0.7)
	ind := core.NewIndicator(cell, core.ReadFailure, nil, nil, nil)
	u := make(linalg.Vector, sram.NumTransistors)
	fails := func(x linalg.Vector) bool {
		// The slice embeds as a zero-padded 6-vector (0·σ = +0, so the
		// other devices stay exactly nominal).
		u[sram.D1], u[sram.A1] = x[0], x[1]
		return ind.Fails(u)
	}
	weight := func(x linalg.Vector) float64 {
		if !fails(x) {
			return 0
		}
		return randx.StdNormalPDF(x)
	}
	rng := rand.New(rand.NewSource(seed))
	init := pfilter.BoundaryInit(rng, 2, 64, 10, 0.05, fails)
	ens := pfilter.New(rng, pfilter.Options{Particles: 50, Filters: 2}, init)
	out := Fig4Result{Initial: init}
	var rec []pfilter.StepRecord
	for i := 0; i < 10; i++ {
		rec = ens.Step(rng, weight)
		diag := core.PFRoundDiag{Round: i}
		for _, r := range rec {
			diag.Filters = append(diag.Filters, core.NewFilterDiag(r))
		}
		out.Diag = append(out.Diag, diag)
	}
	for _, r := range rec {
		out.Candidates = append(out.Candidates, r.Candidates...)
		out.Weights = append(out.Weights, r.Weights...)
		out.Resampled = append(out.Resampled, r.Resampled...)
	}
	return out
}

// WriteCSV dumps the three panels as CSV blocks.
func (r Fig4Result) WriteCSV(w io.Writer) {
	dump := func(name string, pts []linalg.Vector, ws []float64) {
		fmt.Fprintf(w, "# %s\n", name)
		for i, p := range pts {
			if ws != nil {
				fmt.Fprintf(w, "%.4f,%.4f,%.4g\n", p[0], p[1], ws[i])
			} else {
				fmt.Fprintf(w, "%.4f,%.4f\n", p[0], p[1])
			}
		}
	}
	dump("initial (after boundary search)", r.Initial, nil)
	dump("candidates with weights (after prediction+measurement)", r.Candidates, r.Weights)
	dump("resampled", r.Resampled, nil)
}

// Fig5Result carries the butterfly curves of a non-defective and a
// defective cell.
type Fig5Result struct {
	NominalA, NominalB     sram.Curve
	DefectiveA, DefectiveB sram.Curve
	NominalSNM             float64
	DefectiveSNM           float64
}

// Fig5 reproduces the butterfly-curve examples: the nominal Table I cell
// and a cell pushed past the failure boundary by a driver/access mismatch.
func Fig5() Fig5Result {
	cell := sram.NewCell(0.7)
	var nominal sram.Shifts
	defective := sram.Shifts{0, 0, 0.35, 0, -0.2, 0} // weak D1, strong A1
	opt := &sram.SNMOptions{GridN: 128}
	na, nb := cell.Butterfly(nominal, opt)
	da, db := cell.Butterfly(defective, opt)
	return Fig5Result{
		NominalA: na, NominalB: nb,
		DefectiveA: da, DefectiveB: db,
		NominalSNM:   cell.ReadSNM(nominal, opt),
		DefectiveSNM: cell.ReadSNM(defective, opt),
	}
}

// WriteCSV dumps both butterflies in the (V1, V2) plane.
func (r Fig5Result) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# nominal cell, RNM = %.4f V\n", r.NominalSNM)
	fmt.Fprintln(w, "# V1,V2(curveA),V2 such that V1=fL(V2) (curveB transposed)")
	for i := range r.NominalA.In {
		fmt.Fprintf(w, "%.4f,%.4f,%.4f\n", r.NominalA.In[i], r.NominalA.Out[i], r.NominalB.Out[i])
	}
	fmt.Fprintf(w, "# defective cell, RNM = %.4f V\n", r.DefectiveSNM)
	for i := range r.DefectiveA.In {
		fmt.Fprintf(w, "%.4f,%.4f,%.4f\n", r.DefectiveA.In[i], r.DefectiveA.Out[i], r.DefectiveB.Out[i])
	}
}

// MethodSeries is one labelled convergence trace.
type MethodSeries struct {
	Name     string
	Series   stats.Series
	Estimate stats.Estimate
}

// WriteSeries renders a convergence trace as the paper's plot data:
// simulations, estimate, CI and relative error per recorded point.
func WriteSeries(w io.Writer, ms MethodSeries) {
	fmt.Fprintf(w, "# %s: final %v\n", ms.Name, ms.Estimate)
	fmt.Fprintln(w, "# sims,Pfail,CI95,relerr")
	for _, p := range ms.Series {
		fmt.Fprintf(w, "%d,%.6e,%.6e,%.4f\n", p.Sims, p.P, p.CI95, p.RelErr)
	}
}

// WriteDiag renders the stage-1 convergence diagnostics as CSV: one row per
// particle-filter round with the ensemble's worst-case collapse signals and
// the per-lobe particle split.
func WriteDiag(w io.Writer, name string, rounds []core.PFRoundDiag) {
	if len(rounds) == 0 {
		fmt.Fprintf(w, "# %s: no stage-1 diagnostics recorded\n", name)
		return
	}
	fmt.Fprintf(w, "# %s: stage-1 diagnostics (%d filters)\n", name, len(rounds[0].Filters))
	fmt.Fprintln(w, "# round,sims,min_ess,max_weight_frac,min_unique,per_lobe_particles")
	for _, r := range rounds {
		minESS, maxFrac, minUnique := core.RoundSummary(r.Filters)
		split := ""
		for i, f := range r.Filters {
			if i > 0 {
				split += "|"
			}
			split += fmt.Sprintf("%d", f.Particles)
		}
		fmt.Fprintf(w, "%d,%d,%.2f,%.4f,%d,%s\n", r.Round, r.Sims, minESS, maxFrac, minUnique, split)
	}
}
