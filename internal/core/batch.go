package core

import (
	"math/rand"
	"sync/atomic"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
	"ecripse/internal/rtn"
)

// stagedEval adapts the engine's labeling rules to the batch contracts:
// the stage-1 rule to the staged contract of pfilter.StepParStaged, the
// stage-2 rule to the pipelined contract of
// montecarlo.ImportanceSampleParPipelined. Both replay exactly the
// randomness and the classify-or-simulate decisions of the scalar labeler —
// decisions depend only on the point and on classifier state frozen at the
// barrier, never on pending simulation results, which is what makes the
// split exact — labeling classifier-decided draws immediately and parking
// the rest. Stage 1 does it in one step (Prepare); stage 2 cuts it at the
// classifier boundary: Generate stages the raw draws (randomness only, no
// classifier reads, safe to overlap with a settling barrier) and Score
// applies the frozen-classifier decisions afterwards. Resolve settles every
// parked draw of the window through one Indicator.FailsBatch sweep and
// records the observations for the classifier replay at the caller's flush
// barrier, preserving per-index draw order.
type stagedEval struct {
	e       *Engine
	lab     *batchLabeler
	sampler *rtn.Sampler
	m       int
	stage1  bool // labelStage1's rule; otherwise labelStage2's

	slots []stagedSlot // barrier window ring, indexed k mod len
	pts   []linalg.Vector
	outs  []bool
}

// stagedSlot is one sample's in-window state.
type stagedSlot struct {
	fails      int             // failures among classifier-decided draws, then all draws
	classified int             // draws answered by the classifier (folded at Resolve)
	draws      []linalg.Vector // staged RTN draws awaiting Score (stage 2)
	deferred   []linalg.Vector // draws parked for the batched indicator
}

// newStagedEval sizes the ring for the widest barrier window the caller
// will resolve: a whole stage-1 round, or twice the stage-2 batch size,
// because batch k+1 generates into the ring while batch k is still being
// read.
func newStagedEval(e *Engine, lab *batchLabeler, sampler *rtn.Sampler, m int, stage1 bool, window int) *stagedEval {
	return &stagedEval{e: e, lab: lab, sampler: sampler, m: m, stage1: stage1, slots: make([]stagedSlot, window)}
}

// Prepare implements montecarlo.StagedValue for the stage-1 rule. It
// consumes rng exactly as rtnValue under labelStage1 would: one RTN draw
// per inner sample, plus (trained classifier) one uniform per draw for the
// train-fraction decision.
func (s *stagedEval) Prepare(rng *rand.Rand, k int, x linalg.Vector) {
	sl := &s.slots[k%len(s.slots)]
	sl.fails = 0
	sl.classified = 0
	sl.deferred = sl.deferred[:0]
	e := s.e
	for d := 0; d < s.m; d++ {
		u := s.e.ind.addRTN(rng, s.sampler, x)
		if e.classifierOff() || !s.lab.trained || rng.Float64() < e.Opts.TrainFrac {
			sl.deferred = append(sl.deferred, u)
			continue
		}
		sl.classified++
		if s.lab.score(u) > 0 {
			sl.fails++
		}
	}
}

// Generate implements montecarlo.PipelinedValue for the stage-2 rule: the
// classifier-free half of its labeling. It consumes rng exactly as rtnValue
// under labelStage2 would — the stage-2 rule draws no uniforms, so the
// whole consumption is the m RTN draws — and stages the candidate points in
// the slot for Score. It reads no classifier or labeler state, which is
// what lets it overlap the previous batch's settlement. Stage 1 has no such
// split (its train-fraction uniform is interleaved with classifier state),
// so the stage-1 rule is staged-only.
func (s *stagedEval) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	if s.stage1 {
		panic("core: stage-1 rule cannot generate ahead of the barrier")
	}
	sl := &s.slots[k%len(s.slots)]
	sl.fails = 0
	sl.classified = 0
	sl.deferred = sl.deferred[:0]
	sl.draws = sl.draws[:0]
	for d := 0; d < s.m; d++ {
		sl.draws = append(sl.draws, s.e.ind.addRTN(rng, s.sampler, x))
	}
}

// Score implements montecarlo.PipelinedValue: the frozen-classifier half of
// the stage-2 labeling, run after the previous batch's flush barrier. Draw
// order is preserved, so the deferred list — and with it the FailsBatch
// ordering and the classifier replay — matches the scalar labelStage2 bit
// for bit. w indexes the per-worker scorer scratch.
func (s *stagedEval) Score(w, k int) {
	sl := &s.slots[k%len(s.slots)]
	e := s.e
	for _, u := range sl.draws {
		if !e.classifierOff() && s.lab.trained && (e.trustR <= 0 || u.Norm() <= e.trustR) {
			if sc := s.lab.scoreW(w, u); sc <= -e.Opts.Band || sc >= e.Opts.Band {
				sl.classified++
				if sc > 0 {
					sl.fails++
				}
				continue
			}
		}
		sl.deferred = append(sl.deferred, u)
	}
}

// Resolve implements montecarlo.StagedValue: one batched indicator sweep
// over every draw parked in [lo, hi), with the labels banked per slot and
// the observations recorded for the flush-barrier classifier replay. The
// slots' classified tallies fold into the engine counter here — one atomic
// add per barrier instead of one per classified draw.
func (s *stagedEval) Resolve(lo, hi int) {
	s.pts = s.pts[:0]
	classified := 0
	for k := lo; k < hi; k++ {
		sl := &s.slots[k%len(s.slots)]
		classified += sl.classified
		sl.classified = 0
		s.pts = append(s.pts, sl.deferred...)
	}
	if classified > 0 {
		atomic.AddInt64(&s.e.classified, int64(classified))
	}
	if len(s.pts) == 0 {
		return
	}
	if cap(s.outs) < len(s.pts) {
		s.outs = make([]bool, len(s.pts))
	}
	s.outs = s.outs[:len(s.pts)]
	s.e.ind.FailsBatch(s.pts, s.outs)
	i := 0
	for k := lo; k < hi; k++ {
		sl := &s.slots[k%len(s.slots)]
		for _, u := range sl.deferred {
			failed := s.outs[i]
			i++
			if failed {
				sl.fails++
			}
			s.lab.record(k, u, failed)
		}
	}
}

// Value implements montecarlo.StagedValue: sample k's conditional failure
// value — and, on the stage-1 rule, the particle weight v·P(x) of
// eq. (16). Safe for concurrent calls on distinct k (slot reads only).
func (s *stagedEval) Value(k int, x linalg.Vector) float64 {
	sl := &s.slots[k%len(s.slots)]
	v := float64(sl.fails) / float64(s.m)
	if !s.stage1 {
		return v
	}
	if v <= 0 {
		return 0
	}
	return v * randx.StdNormalPDF(x)
}
