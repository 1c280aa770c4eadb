package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to the repository's
// layers with a minimal in-tree decoder of the profile.proto wire format
// (gzip-compressed protobuf), so no module dependency is needed.

// internalBuckets are the internal packages the workloads run; frames of
// any other internal package land in "other".
var internalBuckets = []string{
	"core", "sram", "device", "vecmath", "svm", "montecarlo", "pfilter", "rtn",
	"linalg", "randx", "stats", "obsv", "service", "store", "cluster",
}

// cpuBuckets are the attribution targets in output order: the internal
// packages, "other", and the standard-library layers.
var cpuBuckets = append(append([]string(nil), internalBuckets...),
	"other", "runtime", "net_http", "json", "syscall")

// bucketOf maps a fully qualified function name to its bucket ("" when the
// frame belongs to none).
func bucketOf(fn string) string {
	const internal = "ecripse/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range internalBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."):
		return "runtime"
	}
	return ""
}

// cpuProfile is the attributed profile: CPU seconds per bucket, and the
// seconds no frame of the stack could be attributed to.
type cpuProfile struct {
	Seconds      map[string]float64
	Unattributed float64
	Total        float64
}

// attribute walks each sample's stack from the leaf outwards and charges it
// to the innermost frame that names a bucket, skipping runtime frames unless
// no other bucket appears (so allocation and write-barrier time lands on the
// layer that caused it, and only scheduler and GC time stays "runtime").
func attribute(gz []byte) (cpuProfile, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return cpuProfile{}, err
	}
	out := cpuProfile{Seconds: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.value) / 1e9
		out.Total += sec
		bucket, sawRuntime := "", false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				switch b := bucketOf(fn); b {
				case "":
				case "runtime":
					sawRuntime = true
				default:
					if bucket == "" {
						bucket = b
					}
				}
			}
			if bucket != "" {
				break
			}
		}
		switch {
		case bucket != "":
			out.Seconds[bucket] += sec
		case sawRuntime:
			out.Seconds["runtime"] += sec
		default:
			out.Unattributed += sec
		}
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

// decodeProfile parses the fields of profile.proto that attribution needs:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		samples []profSample
		locs    = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function id → name string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fids []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fids
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locs))}
	for id, fids := range locs {
		names := make([]string, 0, len(fids))
		for _, f := range fids {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields iterates the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field in either packed or unpacked form.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
