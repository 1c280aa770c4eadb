package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// toyPlans builds each workload's op list at a size that runs in seconds.
var toyPlans = map[string]func(seed int64) plan{
	"estimate_cold": func(seed int64) plan { return newEstimatePlan(seed, 2, 2000) },
	"sweep_warm":    func(seed int64) plan { return newSweepPlan(seed, 1, 2000, 2) },
	"service_mixed": func(seed int64) plan { return newMixedPlan(seed, 2, 20) },
}

// TestExactRepeat runs every workload twice at toy size with one seed. The
// op lists and the count metrics, which depend only on the op list, must
// repeat exactly; another seed must give another op list.
func TestExactRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			toy := toyPlans[w.name]
			p1, p2 := toy(7), toy(7)
			if p1.Digest() != p2.Digest() {
				t.Fatalf("same seed, different op lists: %s vs %s", p1.Digest(), p2.Digest())
			}
			if other := toy(8); other.Digest() == p1.Digest() {
				t.Fatalf("seeds 7 and 8 gave the same op list %s", p1.Digest())
			}
			var runs []result
			for _, p := range []plan{p1, p2} {
				out, err := runPass(w, p, t.TempDir(), 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				res := out.e2e()
				if res.Failed != 0 || res.Attempted != p.Ops() {
					t.Fatalf("attempted %d failed %d, want %d and 0", res.Attempted, res.Failed, p.Ops())
				}
				runs = append(runs, res)
			}
			for _, name := range []string{"sims_per_op", "ci95_rel", "ref_agree_frac"} {
				a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
				if a != b || a == 0 {
					t.Errorf("%s: %v then %v, want one nonzero value", name, a, b)
				}
			}
		})
	}
}

// TestTracedPass runs each workload's traced pass at toy size, so the layer
// instruments run under the race detector and the engine spans reach the
// ledger through the library, job-trace and sweep-trace paths.
func TestTracedPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			out, err := runPass(w, toyPlans[w.name](7), t.TempDir(), 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			res := out.layers(out, tr, hostRecord{})
			if res.Failed != 0 {
				t.Fatalf("%d failed ops", res.Failed)
			}
			for _, name := range []string{"core.init_ms_per_op", "core.stage2_ms_per_op", "sram.root_solves_per_op"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the emitted metric names, the
// declared ones in BENCHMARK.json and the layer ledger in ledger.json in
// step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	out := &outcome{rec: &recorder{}, setupS: []float64{1}}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s: emitted %+v, declared unit %s", kind, m.Name, g, m.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, declared %d (%v)", kind, len(got), len(want), names)
		}
	}
	check("end_to_end", out.e2e().Metrics, decl.EndToEnd)
	layers := out.layers(out, newTracer(), hostRecord{}).Metrics
	check("per_layer", layers, decl.PerLayer)

	raw, err = os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range layers {
		if _, ok := ledger[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 || len(ledger) != len(layers) {
		t.Errorf("ledger.json covers %d of %d layer metrics; missing %v", len(ledger)-len(missing), len(layers), missing)
	}
}
