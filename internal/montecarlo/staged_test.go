package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/linalg"
)

// uniformSigma builds a constant per-dimension sigma vector.
func uniformSigma(dim int, s float64) linalg.Vector {
	v := linalg.NewVector(dim)
	for i := range v {
		v[i] = s
	}
	return v
}

// ruleValue is the evaluation rule the driver equivalence tests share:
// given one uniform u from the sample substream, value = 1 when the draw
// lands inside a ball around a shifted center (roughly a rare event under
// the proposal).
func ruleValue(u float64, x linalg.Vector) float64 {
	d := 0.0
	for _, v := range x {
		d += (v - 2) * (v - 2)
	}
	if d < 4+u {
		return 1
	}
	return 0
}

// TestNaiveBatchedMatchesNaive pins NaiveBatched's replayed recording
// schedule to Naive over an equivalent scalar Trial, at batch-aligned and
// ragged lengths.
func TestNaiveBatchedMatchesNaive(t *testing.T) {
	trial := func(c *Counter) Trial {
		return func(rng *rand.Rand) bool {
			c.Add(1)
			return rng.NormFloat64() > 1.8
		}
	}
	for _, n := range []int{50, 256, 777} {
		for _, recordEvery := range []int{0, 37} {
			var c Counter
			want := Naive(rand.New(rand.NewSource(7)), trial(&c), n, &c, recordEvery)

			var c2 Counter
			staged := make([]float64, 64)
			draw := func(rng *rand.Rand, slot int) { staged[slot] = rng.NormFloat64() }
			label := func(slots int, fails []bool) {
				c2.Add(int64(slots))
				for i := 0; i < slots; i++ {
					fails[i] = staged[i] > 1.8
				}
			}
			got := NaiveBatched(context.Background(), rand.New(rand.NewSource(7)), draw, label, n, 64, &c2, recordEvery)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d recordEvery=%d: batched series diverged\nbatched %v\nscalar %v", n, recordEvery, got, want)
			}
			if c.Count() != c2.Count() {
				t.Fatalf("counter diverged: %d vs %d", c.Count(), c2.Count())
			}
		}
	}
}

// TestStagedCancellation checks that a cancelled staged run (NaiveBatched)
// stops at the next batch boundary and returns a partial series ending at
// the stop state, like the scalar driver.
func TestStagedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	draw := func(rng *rand.Rand, slot int) {
		rng.Float64()
		n++
		if n == 300 {
			cancel()
		}
	}
	var c Counter
	label := func(slots int, fails []bool) {
		c.Add(int64(slots))
		for i := range fails[:slots] {
			fails[i] = i%7 == 0
		}
	}
	series := NaiveBatched(ctx, rand.New(rand.NewSource(3)), draw, label, 10000, 64, &c, 0)
	if len(series) == 0 {
		t.Fatalf("cancelled run lost its partial series")
	}
	if fin := series.Final(); fin.P <= 0 || math.IsNaN(fin.P) || fin.Sims != c.Count() {
		t.Fatalf("bad final point %v (counter %d)", fin, c.Count())
	}
	if n != 320 {
		t.Fatalf("run drew %d trials, want 320 (the batch boundary after the cancel)", n)
	}
}
