package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ecripse/internal/service"
)

// Reference for ref_agree_frac: naive Monte Carlo at Vdd 0.5 V, alpha 0.3,
// 1e6 samples (results/fig7_full.csv).
const (
	refAlpha = 0.3
	refP     = 1.5887e-2
	refCI95  = 2.4507e-4
	// refTol is the agreement tolerance in joint 95% half-widths:
	// |P - refP| <= refTol * sqrt(CI95^2 + refCI95^2). At 2 only about 91%
	// of NIS-20000 estimates agree, which makes the share swing with the
	// seed; 3 keeps it near 1 so that a biased estimator stands out.
	refTol = 3.0
)

// recorder collects the outcome of every timed op. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failures  []string
	latMS     []float64 // time to a computed result
	readMS    []float64 // time to an answer from stored state
	rate      float64   // sum over clients of ops / client wall seconds
	sims      int64     // new transistor-level simulations
	ciRel     []float64
	refN      int
	refAgree  int
	cost      costTotals
}

// costTotals accumulates the deterministic cost split of computed results.
type costTotals struct {
	init, warmup, stage1, stage2, classified int64
	solves, iters, laneSlots, laneOccupied   int64
}

func (c *costTotals) addSplit(s service.CostSplit) {
	c.init += s.Init
	c.warmup += s.Warmup
	c.stage1 += s.Stage1
	c.stage2 += s.Stage2
	c.classified += s.Classified
	c.solves += s.RootSolves
	c.iters += s.SolverIters
	c.laneSlots += s.LaneSlots
	c.laneOccupied += s.LaneOccupied
}

// op runs one timed op, counting it as attempted and as failed when fn
// returns an error.
func (r *recorder) op(name string, fn func() error) {
	err := fn()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

func (r *recorder) latency(d time.Duration) {
	r.mu.Lock()
	r.latMS = append(r.latMS, ms(d))
	r.mu.Unlock()
}

func (r *recorder) read(d time.Duration) {
	r.mu.Lock()
	r.readMS = append(r.readMS, ms(d))
	r.mu.Unlock()
}

func (r *recorder) clientDone(ops int, wall time.Duration) {
	r.mu.Lock()
	r.rate += float64(ops) / wall.Seconds()
	r.mu.Unlock()
}

// estimate checks one computed estimate and records its quality figures.
func (r *recorder) estimate(alpha, p, ci95 float64, sims int64) error {
	if !finite(p) || !finite(ci95) || p <= 0 || p > 1 || ci95 < 0 {
		return fmt.Errorf("estimate not finite or out of range: P=%v CI95=%v", p, ci95)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sims += sims
	r.ciRel = append(r.ciRel, ci95/p)
	if alpha == refAlpha {
		r.refN++
		if math.Abs(p-refP) <= refTol*math.Hypot(ci95, refCI95) {
			r.refAgree++
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// outcome is one pass over the op list: its setup samples, the timed
// phase's resource use, and the recorder.
type outcome struct {
	setupS   []float64
	wallS    float64
	cpuS     float64
	rssMB    float64
	gcCycles float64
	allocMB  float64
	rec      *recorder
}

// runPass builds the system reps times in fresh directories under work
// (keeping the last build), executes the op list once and closes the
// system. A non-nil tracer turns on the layer instruments and a CPU profile
// for the timed phase.
func runPass(w workload, p plan, work string, reps int, tr *tracer) (*outcome, error) {
	out := &outcome{rec: &recorder{}}
	var sys system
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(work, "build-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := w.start(p, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if i == reps-1 {
			sys = s
			break
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("%s teardown: %w", w.name, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	if tr != nil {
		if err := tr.start(); err != nil {
			_ = sys.close()
			return nil, err
		}
	}
	t0 := time.Now()
	runErr := sys.run(out.rec)
	out.wallS = time.Since(t0).Seconds()
	if tr != nil {
		tr.stop()
	}
	out.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	out.gcCycles = float64(m1.NumGC - m0.NumGC)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	var collectErr error
	if runErr == nil && tr != nil {
		collectErr = sys.collect()
	}
	closeErr := sys.close()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out.rssMB = float64(ru.Maxrss) / 1024
	}
	for _, err := range []error{runErr, collectErr, closeErr} {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for _, f := range out.rec.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op", f)
	}
	return out, nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// header fills the result fields shared by both output forms.
func (o *outcome) header() result {
	r := o.rec
	failed := len(r.failures)
	return result{
		Correct:   failed == 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

// e2e reports the end-to-end metrics of an untraced pass.
func (o *outcome) e2e() result {
	res := o.header()
	r := o.rec
	ops := float64(r.attempted)
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", median(o.setupS), "s")
	set("throughput_per_s", r.rate, "1/s")
	set("latency_p50_ms", median(r.latMS), "ms")
	set("cpu_s_per_op", ratio(o.cpuS, ops), "s")
	set("peak_rss_mb", o.rssMB, "MB")
	set("sims_per_op", ratio(float64(r.sims), ops), "count")
	set("ci95_rel", median(r.ciRel), "ratio")
	set("ref_agree_frac", ratio(float64(r.refAgree), float64(r.refN)), "ratio")
	set("ok_frac", 1-ratio(float64(res.Failed), ops), "ratio")
	return res
}

// layers reports the per-layer metrics of a traced pass; base is the
// untraced pass over the same op list that the trace overhead is measured
// against.
func (o *outcome) layers(base *outcome, tr *tracer, host hostRecord) result {
	res := o.header()
	r := o.rec
	ops := float64(r.attempted)
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	perOp := func(v float64) float64 { return ratio(v, ops) }
	c := r.cost
	tr.mu.Lock()
	defer tr.mu.Unlock()

	set("core.init_sims_per_op", perOp(float64(c.init)), "count")
	set("core.warmup_sims_per_op", perOp(float64(c.warmup)), "count")
	set("core.stage1_sims_per_op", perOp(float64(c.stage1)), "count")
	set("core.stage2_sims_per_op", perOp(float64(c.stage2)), "count")
	set("core.init_ms_per_op", perOp(sum(tr.spans["boundary.init"])), "ms")
	set("core.train_ms_per_op", perOp(sum(tr.spans["blockade.train"])), "ms")
	set("core.pf_ms_per_op", perOp(sum(tr.spans["pf.round"])), "ms")
	set("core.stage2_ms_per_op", perOp(sum(tr.spans["stage2.is"])), "ms")
	set("core.busy_frac", ratio(o.cpuS, o.wallS*float64(runtime.GOMAXPROCS(0))), "ratio")
	set("svm.classified_frac", ratio(float64(c.classified), float64(c.classified+c.stage1+c.stage2)), "ratio")
	set("sram.root_solves_per_op", perOp(float64(c.solves)), "count")
	set("sram.iters_per_solve", ratio(float64(c.iters), float64(c.solves)), "count")
	set("sram.lane_occupancy", ratio(float64(c.laneOccupied), float64(c.laneSlots)), "ratio")

	set("montecarlo.pipeline_overlap_frac", tr.pipe.OverlapFraction(), "ratio")
	set("montecarlo.stall_ms_per_op", perOp(float64(tr.pipe.StallNS)/1e6), "ms")
	set("montecarlo.settle_ms_per_op", perOp(float64(tr.pipe.SettleNS)/1e6), "ms")

	set("service.handler_ms_p50.submit_hit", median(tr.handler["submit_hit"]), "ms")
	set("service.handler_ms_p50.get", median(tr.handler["get"]), "ms")
	set("service.cache_hit_frac", ratio(tr.cacheHits, tr.cacheHits+tr.cacheMisses), "ratio")
	set("service.queue_wait_ms_p50", median(tr.spans["queue.wait"]), "ms")
	set("service.run_ms_p50", median(tr.spans["run"]), "ms")
	set("service.persist_ms_p50", median(tr.spans["persist"]), "ms")
	set("store.appends_per_op", perOp(tr.appends), "count")
	set("store.append_ms_p50", median(tr.appendMS), "ms")
	set("store.append_ms_p90", quantile(tr.appendMS, 0.9), "ms")
	set("store.recover_ms", mean(tr.recoverMS), "ms")
	set("cluster.hop_ms_p50", median(tr.hops()), "ms")
	set("cluster.peer_lookups_per_op", perOp(float64(len(tr.handler["cache_lookup"]))), "count")

	set("runtime.gc_cycles_per_op", perOp(o.gcCycles), "count")
	set("runtime.alloc_mb_per_op", perOp(o.allocMB), "MB")
	for _, b := range cpuBuckets {
		set("cpu."+b+"_s_per_op", perOp(tr.cpu.Seconds[b]), "s")
	}
	set("cpu.unattributed_frac", ratio(tr.cpu.Unattributed, tr.cpu.Total), "ratio")
	set("obsv.trace_overhead_frac", 1-ratio(r.rate, base.rec.rate), "ratio")

	// The untraced pass's client-side tails: too few samples on some
	// workloads to bound them end to end, but worth watching.
	set("client.latency_p90_ms", quantile(base.rec.latMS, 0.9), "ms")
	set("client.read_latency_p50_ms", median(base.rec.readMS), "ms")
	set("client.read_latency_p90_ms", quantile(base.rec.readMS, 0.9), "ms")
	set("host.canary_ms", host.CanaryMS, "ms")
	return res
}
