package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// hostRecord identifies the machine, toolchain and code a run measured. It
// is printed with every result so that host drift can be told apart from a
// regression; nothing in it normalises a metric.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified,omitempty"`
	SourceHash string  `json:"source_sha256"`
	CanaryMS   float64 `json:"canary_ms"`
}

func readHost(root string) hostRecord {
	h := hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		SourceHash: sourceHash(root),
		CanaryMS:   canaryMS(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root (build output
// excluded), so a run is tied to the code it measured even in a checkout
// that carries no VCS metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// canaryIters sizes the host-speed canary to roughly 100 ms on a 2.x GHz
// x86 core.
const canaryIters = 40_000_000

var canarySink uint64

// canaryMS times a fixed pure-Go integer loop that touches no repository
// code and reports the median of three runs in milliseconds. A moved canary
// with unmoved counters points at the host, not the program.
func canaryMS() float64 {
	var ms []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		var acc uint64
		for i := 0; i < canaryIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x >> 60
		}
		canarySink += acc
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}
