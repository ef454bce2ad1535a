package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by package without adding
// a module dependency: a reader for the handful of protobuf fields of
// pprof's profile.proto that the fold needs.

var errProto = errors.New("malformed profile protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbNext decodes the field at the head of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, n := pbVarint(b)
	if n == 0 {
		return pbField{}, nil, errProto
	}
	b = b[n:]
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		v, n := pbVarint(b)
		if n == 0 {
			return f, nil, errProto
		}
		f.value = v
		return f, b[n:], nil
	case 1:
		if len(b) < 8 {
			return f, nil, errProto
		}
		return f, b[8:], nil
	case 2:
		l, n := pbVarint(b)
		if n == 0 || uint64(len(b)-n) < l {
			return f, nil, errProto
		}
		f.data = b[n : n+int(l)]
		return f, b[n+int(l):], nil
	case 5:
		if len(b) < 4 {
			return f, nil, errProto
		}
		return f, b[4:], nil
	}
	return f, nil, errProto
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated varint field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return dst, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// leafSamples parses a (gzipped or raw) pprof profile and returns the
// last sample value — CPU nanoseconds in a Go CPU profile — summed by the
// name of each sample's leaf function.
func leafSamples(raw []byte) (map[string]int64, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]uint64{} // function id → string index
		strs     []string
	)
	for b := raw; len(b) > 0; {
		f, rest, err := pbNext(b)
		if err != nil {
			return nil, err
		}
		b = rest
		switch f.num {
		case 2: // Sample
			var locs, vals []uint64
			for sb := f.data; len(sb) > 0; {
				sf, rest, err := pbNext(sb)
				if err != nil {
					return nil, err
				}
				sb = rest
				switch sf.num {
				case 1:
					if locs, err = pbUints(locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case 4: // Location: the first Line is the innermost (inlined) frame.
			var id, fn uint64
			haveLine := false
			for lb := f.data; len(lb) > 0; {
				lf, rest, err := pbNext(lb)
				if err != nil {
					return nil, err
				}
				lb = rest
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.value
				case lf.num == 4 && lf.wire == 2 && !haveLine:
					haveLine = true
					for nb := lf.data; len(nb) > 0; {
						nf, rest, err := pbNext(nb)
						if err != nil {
							return nil, err
						}
						nb = rest
						if nf.num == 1 && nf.wire == 0 {
							fn = nf.value
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			for fb := f.data; len(fb) > 0; {
				ff, rest, err := pbNext(fb)
				if err != nil {
					return nil, err
				}
				fb = rest
				if ff.wire != 0 {
					continue
				}
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// layerOf maps a Go function symbol to a cpu-share bucket: the package
// under repro/internal when it is one of the named layers, "runtime" for
// the Go runtime and standard library, "other" for the rest of the
// repository and the benchmark itself.
func layerOf(fn string) string {
	// Cut type parameters and receivers, which may contain dots and
	// slashes of their own, before looking for the package path.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	const internal = "repro/internal/"
	if i := strings.Index(pkg, internal); i >= 0 {
		layer, _, _ := strings.Cut(pkg[i+len(internal):], "/")
		for _, l := range cpuShareLayers {
			if l == layer && l != "runtime" && l != "other" {
				return l
			}
		}
		return "other"
	}
	if pkg == "main" || strings.HasPrefix(pkg, "repro") || fn == "unknown" {
		return "other"
	}
	return "runtime"
}

// cpuShares folds leaf samples into per-layer shares that sum to 1 (all
// zero for an empty profile).
func cpuShares(leaf map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(cpuShareLayers))
	for _, l := range cpuShareLayers {
		out[l] = 0
	}
	var total int64
	for _, v := range leaf {
		total += v
	}
	if total == 0 {
		return out
	}
	for fn, v := range leaf {
		out[layerOf(fn)] += float64(v) / float64(total)
	}
	return out
}
