package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// layers are the self-time buckets of a CPU profile: the simulator's
// internal packages, garbage collection, allocation, Go runtime work on
// behalf of no atomio frame, and the rest of atomio.
var layers = []string{
	"des", "sim", "mpi", "lock", "pfs", "interval", "datatype", "fileview",
	"mpiio", "core", "verify", "obs", "harness", "gc", "alloc", "runtime", "other",
}

// packageLayer maps an atomio package path (below "atomio/internal/") to
// its layer.
var packageLayer = map[string]string{
	"sim/des":        "des",
	"sim":            "sim",
	"sim/fault":      "sim",
	"mpi":            "mpi",
	"lock":           "lock",
	"pfs":            "pfs",
	"pfs/scenario":   "pfs",
	"interval":       "interval",
	"interval/index": "interval",
	"datatype":       "datatype",
	"fileview":       "fileview",
	"mpiio":          "mpiio",
	"core":           "core",
	"verify":         "verify",
	"obs":            "obs",
	"harness":        "harness",
	"runner":         "harness",
	"workload":       "harness",
}

// funcPackage returns the import path of a profiled function's package.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isGCFrame reports whether a runtime function belongs to the garbage
// collector: background and assist marking, sweeping, scavenging and write
// barriers.
func isGCFrame(name string) bool {
	switch name {
	case "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.wbBufFlush", "runtime.wbBufFlush1", "gcWriteBarrier":
		return true
	}
	return strings.HasPrefix(name, "runtime.gc") || strings.HasPrefix(name, "runtime.(*gcWork)") ||
		strings.HasPrefix(name, "gcWriteBarrier")
}

// classify attributes one sample, given its stack leaf first, to a layer:
// gc when the stack is in the collector; alloc when it is in mallocgc or
// the leaf clears memory; otherwise the layer of the innermost atomio
// frame, so that sorting, copying and map lookups count for the layer
// that called them; runtime when no atomio frame is on the stack.
func classify(stack []string) string {
	for _, f := range stack {
		if isGCFrame(f) {
			return "gc"
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.memclr") {
		return "alloc"
	}
	for _, f := range stack {
		if f == "runtime.mallocgc" {
			return "alloc"
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		if rest, ok := strings.CutPrefix(pkg, "atomio/internal/"); ok {
			if l, ok := packageLayer[rest]; ok {
				return l
			}
			return "other"
		}
		if pkg == "atomio" || pkg == "main" {
			return "other"
		}
	}
	return "runtime"
}

// layerShares decodes a runtime/pprof CPU profile and returns each layer's
// share of the sampled CPU time, plus the total CPU seconds sampled.
func layerShares(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]float64, len(layers))
	var total float64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1]) // CPU nanoseconds
		var stack []string
		for _, id := range s.locs {
			for _, fn := range prof.locations[id] {
				stack = append(stack, prof.funcName(fn))
			}
		}
		byLayer[classify(stack)] += w
		total += w
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = byLayer[l] / total
	}
	return shares, total / 1e9, nil
}

// profile is the part of a pprof profile.proto message layer attribution
// needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	if i := p.functions[id]; i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

// decodeProfile parses the profile.proto fields layer attribution reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return varints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// walk calls fn for each field of a protobuf message: v holds a varint or
// fixed-width value, data a length-delimited payload (nil otherwise).
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return fmt.Errorf("profile: truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (data) or not (v).
func varints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
