package core

import (
	"math/rand"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/sram"
)

// benchPoints draws n normalized variability points spread from the typical
// region out to ~4 sigma, so a barrier mixes passing and failing samples
// like a real stage-2 batch does.
func benchPoints(n int) []linalg.Vector {
	rng := rand.New(rand.NewSource(42))
	us := make([]linalg.Vector, n)
	for i := range us {
		u := linalg.NewVector(sram.NumTransistors)
		scale := 1 + 3*rng.Float64()
		for d := range u {
			u[d] = scale * rng.NormFloat64()
		}
		us[i] = u
	}
	return us
}

// BenchmarkSimulateBatch measures one stage-2 settlement barrier: a full
// batch of indicator calls through the lockstep margin solver. Run with
// -benchmem — after the first barrier warms the engine scratch, the steady
// state must be allocation-free (the per-barrier shs/margins buffers and
// solver tallies are all pooled on the engine).
func BenchmarkSimulateBatch(b *testing.B) {
	cases := []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"hold-lanes256", Options{Mode: HoldFailure, BatchLanes: 256}},
	}
	us := benchPoints(stage2Batch)
	out := make([]bool, len(us))
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine(sram.NewCell(0.5), nil, tc.opts)
			e.simulateBatch(us, out) // warm the engine scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.simulateBatch(us, out)
			}
		})
	}
}
