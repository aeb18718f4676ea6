package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is the part of a pprof CPU profile the benchmark reads: each
// sample's leaf function name and its value (CPU nanoseconds), and the
// number of profiling ticks behind them (samples with identical stacks
// arrive merged, one entry with a count).
type profile struct {
	leaves []string
	values []int64
	ticks  int64
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) far enough
// to attribute every sample to its leaf function: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // later lines are the callers this frame was inlined into
					}
					seenLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		leaf := "unknown"
		if si, ok := fnName[locFn[s.locs[0]]]; ok && si >= 0 && int(si) < len(strs) {
			leaf = strs[si]
		}
		p.leaves = append(p.leaves, leaf)
		p.values = append(p.values, s.vals[len(s.vals)-1])
		p.ticks += s.vals[0]
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field number and
// either its varint value (wire type 0) or its bytes (wire type 2).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// packed feeds a repeated varint field to add, whether it arrived packed
// (bytes) or as a single value.
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// modulePrefix is the import-path prefix of the repository's layers.
const modulePrefix = "repro/internal/"

// packageOf maps a function symbol to the layer it belongs to: the package
// under repro/internal (sub-packages fold into their parent, so
// serving/obs counts as serving), "runtime" for the Go runtime, and
// "other" for everything else.
func packageOf(fn string) string {
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	switch {
	case strings.HasPrefix(path, modulePrefix):
		pkg := strings.TrimPrefix(path, modulePrefix)
		if i := strings.Index(pkg, "/"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case path == "runtime" || strings.HasPrefix(path, "runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares returns each layer's share of the profile's CPU time, by the
// leaf (self) frame of every sample.
func cpuShares(p *profile) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for i, leaf := range p.leaves {
		by[packageOf(leaf)] += p.values[i]
		total += p.values[i]
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for pkg, v := range by {
		shares[pkg] = float64(v) / float64(total)
	}
	return shares
}

// topLeaves returns the n leaf functions with the most CPU time and their shares.
func topLeaves(p *profile, n int) []leafShare {
	var total int64
	by := map[string]int64{}
	for i, leaf := range p.leaves {
		by[leaf] += p.values[i]
		total += p.values[i]
	}
	out := make([]leafShare, 0, len(by))
	for fn, v := range by {
		out = append(out, leafShare{Func: fn, Share: float64(v) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// leafShare is one function's share of a profile's CPU time.
type leafShare struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"`
}
