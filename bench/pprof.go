package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are this repository's modules, in the order the per-layer
// report lists them. A CPU sample is charged to the layer of its
// innermost bump/internal frame.
var layers = []string{
	// simulator
	"event", "core", "cache", "prefetch", "noc", "memctrl", "dram", "energy",
	"mem", "writeback", "workload", "scenario", "stats", "sim", "figures",
	// checkpointing
	"snapshot",
	// service
	"service", "wire", "cluster", "wal", "blob", "obs",
}

const internalPrefix = "bump/internal/"

// gcWorkers are the runtime's background collector entry points: a
// sample with no bump/internal frame under one of them is GC work.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// cpuShares decodes gzipped pprof CPU profiles and returns each layer's
// share of their samples together ("cpu.<layer>", plus "cpu.gc" and
// "cpu.other"). The shares sum to 1 unless the profiles hold no samples.
func cpuShares(profiles ...[]byte) (map[string]float64, error) {
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	weights := make(map[string]int64)
	var total int64
	for _, data := range profiles {
		p, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			total += s.weight
			weights[p.classify(s.locations, known)] += s.weight
		}
	}
	shares := make(map[string]float64, len(layers)+2)
	for _, l := range append(append([]string(nil), layers...), "gc", "other") {
		shares["cpu."+l] = 0
		if total > 0 {
			shares["cpu."+l] = float64(weights[l]) / float64(total)
		}
	}
	return shares, nil
}

// classify names the layer one stack (leaf first) is charged to.
func (p *profile) classify(stack []uint64, known map[string]bool) string {
	gc := false
	for _, id := range stack {
		for _, fn := range p.locations[id] {
			name := p.functions[fn]
			if pkg, ok := strings.CutPrefix(packageOf(name), internalPrefix); ok {
				layer, _, _ := strings.Cut(pkg, "/")
				if known[layer] {
					return layer
				}
				return "other"
			}
			gc = gc || gcWorkers[name]
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// packageOf returns the import path of a symbol name such as
// "bump/internal/cache.(*Cache).Lookup". Type arguments are cut first:
// they may hold import paths of their own.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// profile is the part of the pprof format (github.com/google/pprof,
// proto/profile.proto) the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]string   // function ID -> name
}

type sample struct {
	locations []uint64 // leaf first
	weight    int64    // first sample value: the sample count
}

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]string)}
	var strs []string
	fnNames := make(map[uint64]int64)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, v, b)
				case 2:
					return appendVarints(&values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.weight = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
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
			if err != nil {
				return err
			}
			fnNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range fnNames {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("pprof: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped: the attribution reads none.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints adds a repeated integer field's values to dst: one value
// when the field arrived unpacked (b == nil), every varint in b when it
// arrived packed.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning 0 bytes read on a
// truncated or overlong encoding.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
