// Command perfbench is the repository benchmark. It drives the public
// library, service, store and cluster APIs in one process over a fixed op
// list derived only from --seed (and the run length), checks every output,
// and prints one JSON result line. BENCHMARK.json at the repository root
// documents the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload estimate_cold --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// workload is one benchmark scenario: a deterministic op list and the
// system that executes it.
type workload struct {
	name string
	// plan derives the op list from the seed and the run length.
	plan func(seed int64, seconds int) plan
	// start builds the system under test in dir and runs the untimed
	// warm-up op; the time it takes is one setup sample.
	start func(p plan, dir string, tr *tracer) (system, error)
}

// plan is a workload's fixed op list. Digest names the ops exactly, so two
// runs with one seed can be shown to have done the same work.
type plan interface {
	Digest() string
	// Ops is the number of timed ops.
	Ops() int
}

// system is a started workload instance.
type system interface {
	// run executes the timed op list.
	run(rec *recorder) error
	// collect gathers layer counters after the timed phase (traced only).
	collect() error
	// close stops every goroutine and server the system started.
	close() error
}

var workloads = []workload{
	{name: "estimate_cold", plan: planEstimate, start: startEstimate},
	{name: "sweep_warm", plan: planSweep, start: startSweep},
	{name: "service_mixed", plan: planMixed, start: startMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: estimate_cold, sweep_warm or service_mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same op list")
	seconds := flag.Int("seconds", 20, "intended run length; sizes the fixed op list")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <estimate_cold|sweep_warm|service_mixed> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := benchmain(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchmain(w workload, seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "service")); err != nil {
		return errors.New("run from the repository root")
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	host := readHost(root)
	p := w.plan(seed, seconds)
	var res result
	if !traced {
		out, err := runPass(w, p, work, setupReps, nil)
		if err != nil {
			return err
		}
		res = out.e2e()
	} else {
		base, err := runPass(w, p, work, 1, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		out, err := runPass(w, p, work, 1, tr)
		if err != nil {
			return err
		}
		res = out.layers(base, tr, host)
	}
	hb, err := json.Marshal(map[string]any{"host": host, "workload": w.name, "seed": seed, "ops": p.Ops(), "op_digest": p.Digest()})
	if err != nil {
		return err
	}
	fmt.Println(string(hb))
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	return nil
}

const (
	// setupReps is how many times an untraced run builds its system (each
	// time with one warm-up op); setup_s is the median and the last build
	// runs the timed ops.
	setupReps = 3
	// warmUpSeed seeds the untimed warm-up op. It is the same in every run,
	// so setup_s times the same work whatever --seed is; freshSeed never
	// returns it, so a timed op never repeats the warm-up.
	warmUpSeed = 1
)

// freshSeed draws an op seed from the plan's generator.
func freshSeed(rng *rand.Rand) int64 { return 2 + rng.Int63n(1<<40) }

// opsFor sizes a fixed op list to roughly the run length on the reference
// host. It depends only on its arguments, never on a clock.
func opsFor(seconds int, opSeconds float64) int {
	return max(2, int(math.Round(float64(seconds)/opSeconds)))
}

// digest names an op list exactly.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
