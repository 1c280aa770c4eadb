package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	rec, ok := parseLine("BenchmarkGMMLogPDF-8   \t 1563   761234 ns/op  120 B/op  3 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if rec.Name != "BenchmarkGMMLogPDF" || rec.Procs != 8 || rec.Iterations != 1563 {
		t.Fatalf("bad header fields: %+v", rec)
	}
	want := map[string]float64{"ns/op": 761234, "B/op": 120, "allocs/op": 3}
	for k, v := range want {
		if rec.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v", k, rec.Metrics[k], v)
		}
	}
}

func TestParseLineCustomMetricsAndSubBench(t *testing.T) {
	rec, ok := parseLine("BenchmarkAblationClassifier/with-classifier-4  1  2.5e+08 ns/op  4096 sims  1.2e-11 pfail")
	if !ok {
		t.Fatal("line not recognised")
	}
	if rec.Name != "BenchmarkAblationClassifier/with-classifier" || rec.Procs != 4 {
		t.Fatalf("bad name/procs: %+v", rec)
	}
	if rec.Metrics["sims"] != 4096 || rec.Metrics["pfail"] != 1.2e-11 {
		t.Fatalf("custom metrics lost: %+v", rec.Metrics)
	}
}

func TestParseSkipsNonBenchmarkLines(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: ecripse
cpu: Intel(R) Xeon(R) Processor
BenchmarkDeviceIds-2  100  52 ns/op
BenchmarkDeviceIds-2  100  51 ns/op
PASS
ok  	ecripse	1.234s
`
	doc, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if doc.CPU != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpu header = %q", doc.CPU)
	}
	recs := doc.Records
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[1].Metrics["ns/op"] != 51 {
		t.Fatalf("second record wrong: %+v", recs[1])
	}
}

func TestParseLineNoProcsSuffix(t *testing.T) {
	// go test omits the -N suffix when GOMAXPROCS is 1... actually it keeps
	// it, but hand-written fixtures and some tools drop it; accept both.
	rec, ok := parseLine("BenchmarkRTNSample 2048 900 ns/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if rec.Procs != 0 || rec.Iterations != 2048 {
		t.Fatalf("bad fields: %+v", rec)
	}
}

// TestParseLineScalingAtOneAndFourCPUs pins the two shapes a -cpu 1,4
// scaling run prints for one sub-benchmark: at GOMAXPROCS 1 go test drops
// the suffix, so the lanes=64 value must stay in the name rather than be
// read as procs; at GOMAXPROCS 4 only the trailing -4 is procs.
func TestParseLineScalingAtOneAndFourCPUs(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
	}{
		{"BenchmarkFig7Scaling/lanes=64         \t       1\t 235034567 ns/op\t   0.01610 pfail\t  2070 sims", 0},
		{"BenchmarkFig7Scaling/lanes=64-4       \t       1\t 101234567 ns/op\t   0.01610 pfail\t  2070 sims", 4},
	} {
		rec, ok := parseLine(tc.line)
		if !ok {
			t.Fatalf("line not recognised: %q", tc.line)
		}
		if rec.Name != "BenchmarkFig7Scaling/lanes=64" || rec.Procs != tc.procs {
			t.Fatalf("%q: name %q procs %d, want BenchmarkFig7Scaling/lanes=64 procs %d",
				tc.line, rec.Name, rec.Procs, tc.procs)
		}
		if rec.Metrics["sims"] != 2070 {
			t.Fatalf("%q: metrics %v", tc.line, rec.Metrics)
		}
	}
}
