package ecripse

import (
	"math"
	"testing"
)

// TestBaselineBitPins pins the four facade baselines to the exact estimates
// they returned before the failure indicator moved behind core.Indicator:
// P and CI95 bit for bit, and the simulation count. Run under GOAMD64=v1
// and v3 in CI.
func TestBaselineBitPins(t *testing.T) {
	cell := NewCell(VddLow)
	cfg := TableIRTN(cell)
	cases := []struct {
		name    string
		run     func() Estimate
		p, ci95 float64
		sims    int64
	}{
		{"naive", func() Estimate { _, e := NaiveMC(cell, 5, 2000, cfg, -1); return e }, 0.0024999999999999996, 0.002189112851040415, 2000},
		{"naive-rtn", func() Estimate { _, e := NaiveMC(cell, 5, 2000, cfg, 0.3); return e }, 0.013500000000000007, 0.005058911977871282, 2000},
		{"conventional", func() Estimate { _, e := Conventional(cell, 5, 400); return e }, 0.003777133815956527, 0.0012457769142752131, 2576},
		{"blockade", func() Estimate { _, e := StatisticalBlockade(cell, 5, 2000); return e }, 0.002750000000000003, 0.0016230831096526001, 2026},
		{"subset", func() Estimate { return SubsetSimulation(cell, 5, 200) }, 0.005500000000000001, 0.0033066224714050226, 600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			if math.Float64bits(got.P) != math.Float64bits(tc.p) ||
				math.Float64bits(got.CI95) != math.Float64bits(tc.ci95) || got.Sims != tc.sims {
				t.Fatalf("got p=%v ci95=%v sims=%d, want p=%v ci95=%v sims=%d",
					got.P, got.CI95, got.Sims, tc.p, tc.ci95, tc.sims)
			}
		})
	}
}
