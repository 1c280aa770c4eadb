// Command benchjson converts `go test -bench` text output into a JSON
// trajectory record so benchmark baselines can be diffed across PRs.
//
// Usage:
//
//	go test -bench . -benchmem -benchtime 1x -count 5 | benchjson -o BENCH_2026-08-06.json
//	benchjson diff [-metric ns/op] [-threshold 1.10] [-fail] old.json new.json
//
// The diff subcommand compares two such documents benchmark-by-benchmark
// (median per benchmark when -count produced repetitions), prints the
// per-benchmark ratio and the geometric-mean ratio, and lists benchmarks
// whose new/old ratio exceeds -threshold; with -fail those make the exit
// status nonzero, which is how CI turns the report into a gate.
//
// Each benchmark result line
//
//	BenchmarkFig7Scaling/lanes=64-8  1  123456 ns/op  4096 sims
//
// becomes one record carrying the name, the GOMAXPROCS suffix, the
// iteration count and every reported metric (ns/op, B/op, allocs/op and
// any custom b.ReportMetric units such as sims or pfail). go test omits
// the suffix when GOMAXPROCS is 1, which the record keeps as procs 0; the
// repo's sub-benchmark names therefore never end in -<digits> (they use
// key=value), so a trailing -N is always GOMAXPROCS. With -count N the
// same benchmark yields N records; downstream tooling aggregates. The
// "cpu:" header go test prints is kept as the document's CPU model; other
// non-benchmark lines (PASS, ok, goos/pkg headers) are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Record is one benchmark result line.
type Record struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is the emitted file: run metadata plus all records. The
// benchmark run's GOMAXPROCS is per record (Procs), never the recorder's.
type Document struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	CPU       string   `json:"cpu,omitempty"`
	GoOS      string   `json:"goos"`
	GoArch    string   `json:"goarch"`
	Records   []Record `json:"records"`
}

// benchLine matches "Benchmark<Name>[-procs] <iters> <metrics...>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

// parseLine decodes one benchmark output line, or returns ok=false for
// lines that are not benchmark results.
func parseLine(line string) (Record, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(m[3], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
	if m[2] != "" {
		rec.Procs, _ = strconv.Atoi(m[2])
	}
	fields := strings.Fields(m[4])
	// Metrics come in "<value> <unit>" pairs.
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	if len(rec.Metrics) == 0 {
		return Record{}, false
	}
	return rec, true
}

// parse reads benchmark output and collects all result records and the
// "cpu:" header into a document (run metadata other than CPU is the
// caller's).
func parse(r io.Reader) (Document, error) {
	var doc Document
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.CPU = strings.TrimSpace(cpu)
		} else if rec, ok := parseLine(line); ok {
			doc.Records = append(doc.Records, rec)
		}
	}
	return doc, sc.Err()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	out := flag.String("o", "", "output file (default stdout)")
	date := flag.String("date", time.Now().UTC().Format("2006-01-02"), "run date stamped into the document")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Records) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	doc.Date = *date
	doc.GoVersion = runtime.Version()
	doc.GoOS = runtime.GOOS
	doc.GoArch = runtime.GOARCH
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d records to %s\n", len(doc.Records), *out)
}
