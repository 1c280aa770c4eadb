package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
)

// goldenPath is the statistical-regression baseline, checked in so that CI
// compares every run against the same numbers. Regenerate after an
// intentional estimator change with:
//
//	REGRESS_UPDATE=1 go test -run TestRegressEstimators ./internal/experiments/
const goldenPath = "../../results/golden/regress.json"

// regressCase is one fixed-seed estimator run at a paper operating point.
// The golden fields (P, CI95, Sims) are what the run produced when the
// baseline was recorded.
type regressCase struct {
	Name      string  `json:"name"`
	Vdd       float64 `json:"vdd"`
	Estimator string  `json:"estimator"`
	Seed      int64   `json:"seed"`
	N         int     `json:"n"`
	P         float64 `json:"p"`
	CI95      float64 `json:"ci95"`
	Sims      int64   `json:"sims"`
}

type regressGolden struct {
	// TolCI is the acceptance band in units of the golden CI95: a run
	// regresses when |p - golden.p| > TolCI * golden.ci95. Four half-widths
	// leave room for benign resampling-order refactors (the seed pins the
	// stream today, so an unchanged tree reproduces the goldens exactly)
	// while still catching physics or estimator regressions, which move the
	// estimate by many CIs.
	TolCI float64       `json:"tol_ci"`
	Cases []regressCase `json:"cases"`
}

// runRegressCase executes one case exactly as recorded: fresh cell at the
// case's supply, fresh seeded RNG, RDF-only failure indicator.
func runRegressCase(c regressCase) (stats.Estimate, error) {
	cell := sram.NewCell(c.Vdd)
	rng := rand.New(rand.NewSource(c.Seed))
	ind := core.NewIndicator(cell, core.ReadFailure, nil, nil, nil)
	switch c.Estimator {
	case "sis":
		res := sis.Estimate(rng, sram.NumTransistors, ind.Value, ind.Counter(),
			&sis.Options{NIS: c.N}, nil)
		return res.Estimate, nil
	case "blockade":
		res := blockade.Estimate(rng, sram.NumTransistors, ind.Fails, ind.Counter(), c.N, nil)
		return res.Estimate, nil
	}
	return stats.Estimate{}, fmt.Errorf("unknown estimator %q", c.Estimator)
}

// TestRegressEstimators is the statistical regression suite: fixed-seed SIS
// and statistical-blockade runs at the paper's operating points (the Fig. 6
// nominal 0.7 V cell and the Fig. 7 lowered 0.5 V supply) must land within
// the documented confidence band of the checked-in golden estimates, and
// the physics must keep its sign: failure probability rises as the supply
// drops. Skipped under -short; REGRESS_UPDATE=1 rewrites the baseline.
func TestRegressEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical regression suite skipped in -short mode")
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden baseline: %v (regenerate with REGRESS_UPDATE=1)", err)
	}
	var golden regressGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("decode %s: %v", goldenPath, err)
	}
	if golden.TolCI <= 0 || len(golden.Cases) == 0 {
		t.Fatalf("golden baseline malformed: %+v", golden)
	}

	update := os.Getenv("REGRESS_UPDATE") != ""
	got := make(map[string]stats.Estimate, len(golden.Cases))
	for i := range golden.Cases {
		c := &golden.Cases[i]
		t.Run(c.Name, func(t *testing.T) {
			start := time.Now()
			est, err := runRegressCase(*c)
			if err != nil {
				t.Fatal(err)
			}
			got[c.Name] = est
			t.Logf("%s: %v (%.1fs)", c.Name, est, time.Since(start).Seconds())
			if update {
				c.P, c.CI95, c.Sims = est.P, est.CI95, est.Sims
				return
			}
			if est.P <= 0 {
				t.Fatalf("estimate collapsed to %v", est.P)
			}
			if diff, bound := est.P-c.P, golden.TolCI*c.CI95; diff < -bound || diff > bound {
				t.Errorf("Pfail drifted outside the regression band:\n got    %.6e (CI95 ±%.3e)\n golden %.6e (CI95 ±%.3e)\n |diff| %.3e > %g×CI95 = %.3e",
					est.P, est.CI95, c.P, c.CI95, abs(diff), golden.TolCI, bound)
			}
			// A variance blow-up is a regression even when the mean survives.
			if c.CI95 > 0 && est.CI95 > 4*c.CI95 {
				t.Errorf("CI95 blew up: %.3e vs golden %.3e", est.CI95, c.CI95)
			}
		})
	}

	if update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	// Monotonicity sanity across operating points: lowering the supply from
	// the Fig. 6 nominal 0.7 V to the Fig. 7 0.5 V must raise Pfail by a
	// wide margin (orders of magnitude in the paper).
	lo, hi := got["sis-vdd0.7"], got["sis-vdd0.5"]
	if lo.P > 0 && hi.P > 0 && hi.P <= lo.P {
		t.Errorf("Pfail not monotone in supply: P(0.5 V) = %.3e <= P(0.7 V) = %.3e", hi.P, lo.P)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
