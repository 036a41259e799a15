package main

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library
// writes it but cannot read it, and the module takes no dependencies,
// so this file decodes the handful of fields the per-layer shares
// need: samples (leaf location and value), locations (their inlined
// line stack), functions (their names) and the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerBuckets are the CPU-share buckets of the per-layer report, in
// print order. Every flat sample lands in exactly one of them.
var layerBuckets = []string{"sim", "apps", "shmem", "sched", "slurm", "runtime", "other"}

// bucketOf maps a fully qualified Go function name to its layer: the
// repository module's packages by name (shmem and core together are
// the DROM layer), the Go runtime, or other.
func bucketOf(fn string) string {
	switch pkg := packageOf(fn); pkg {
	case "repro/internal/sim":
		return "sim"
	case "repro/internal/apps":
		return "apps"
	case "repro/internal/shmem", "repro/internal/core":
		return "shmem"
	case "repro/internal/sched":
		return "sched"
	case "repro/internal/slurm":
		return "slurm"
	default:
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime"
		}
		return "other"
	}
}

// packageOf returns the import path of a function symbol such as
// "repro/internal/apps.(*Instance).iterate" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a runtime/pprof CPU profile and returns the share
// of sampled CPU time per layer bucket (flat: each sample is charged
// to its innermost frame) and the number of samples.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	totals := make(map[string]int64, len(layerBuckets))
	var all int64
	n := 0
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds follow the sample count
		totals[bucketOf(p.leafFunc(s.locs[0]))] += v
		all += v
		n++
	}
	shares := make(map[string]float64, len(layerBuckets))
	for _, b := range layerBuckets {
		if all > 0 {
			shares[b] = float64(totals[b]) / float64(all)
		} else {
			shares[b] = 0
		}
	}
	return shares, n, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locFunc map[uint64]uint64 // location id -> innermost function id
	funcs   map[uint64]int64  // function id -> name string index
	strs    []string
}

// leafFunc names the innermost function of a location; "" when the
// profile does not describe it.
func (p *profile) leafFunc(loc uint64) string {
	fid, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	si, ok := p.funcs[fid]
	if !ok || si < 0 || si >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[si]
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		data = raw
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fid uint64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fid = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fid
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadVarint = errors.New("malformed varint")

// eachField walks one protobuf message, handing each field's number,
// wire type and value (varint, or the bytes of a length-delimited
// field) to fn. Fixed-width fields are skipped.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadVarint
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadVarint
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return io.ErrUnexpectedEOF
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return io.ErrUnexpectedEOF
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return io.ErrUnexpectedEOF
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
