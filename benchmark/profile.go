package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
)

// cpuSample is one decoded CPU-profile sample record: its stack, leaf
// first, how many profiling ticks landed on it, and the CPU
// nanoseconds they stand for.
type cpuSample struct {
	stack []string
	count int64
	ns    int64
}

// decodeCPUProfile reads the gzip-compressed protobuf profile written
// by runtime/pprof.StartCPUProfile. Only the fields the ledger needs
// are decoded: samples, locations (with inlined lines, innermost
// first), functions and the string table. The module has no
// dependencies, so this stands in for github.com/google/pprof/profile.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.values = appendVarints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	name := func(fn uint64) string {
		if i := funcNames[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu-time value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, name(fn))
			}
		}
		out = append(out, cpuSample{stack: stack, count: int64(s.values[0]), ns: int64(s.values[1])})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with the field
// number, wire type, and the varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one unpacked value, or a packed run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// foldCPU sums sample CPU time per host-time bucket (see
// classifyStack) and returns the buckets with the number of ticks.
func foldCPU(samples []cpuSample) (map[string]float64, int64) {
	ns := map[string]float64{}
	var ticks int64
	for _, s := range samples {
		ns[classifyStack(s.stack)] += float64(s.ns)
		ticks += s.count
	}
	return ns, ticks
}

// allocsByLayer folds the runtime's allocation profile into estimated
// object counts per layer, attributing each record to its first frame
// outside the runtime. Records are sampled every rate bytes on
// average; the counts are unsampled the way pprof does it.
func allocsByLayer(rate int) map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]float64{}
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		avg := float64(r.AllocBytes) / float64(r.AllocObjects)
		scale := 1 / (1 - math.Exp(-avg/float64(rate)))
		out[allocLayer(stack)] += float64(r.AllocObjects) * scale
	}
	return out
}
