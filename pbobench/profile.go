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

// layers are the packages the CPU profile is split by. Every runtime
// package (GC, allocation, scheduling, maps) counts as "runtime"; any other
// package counts as "other".
var layers = []string{"engine", "core", "bounds", "lp", "cuts", "ls", "share", "portfolio"}

// layerOf maps a profile function name such as
// "repro/internal/engine.(*Engine).Propagate" to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, l := range layers {
		if pkg == "repro/internal/"+l {
			return l
		}
	}
	return "other"
}

// cpuSamples decodes a gzipped pprof CPU profile and adds its sample
// counts to counts by layer, attributing a sample to the package of its
// leaf frame (for inlined code, the innermost function).
func cpuSamples(gz []byte, counts map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// profile.proto: Profile{2: Sample, 4: Location, 5: Function,
	// 6: string_table}; Sample{1: location_id, 2: value};
	// Location{1: id, 4: Line}; Line{1: function_id}; Function{1: id, 2: name}.
	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		sampleLoc []uint64              // leaf location per sample
		sampleN   []uint64              // sample count per sample
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var leaf, n uint64
			var haveLeaf, haveN bool
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1 && !haveLeaf:
					leaf, haveLeaf = firstVarint(v, b)
				case num == 2 && !haveN:
					n, haveN = firstVarint(v, b)
				}
				return nil
			})
			sampleLoc, sampleN = append(sampleLoc, leaf), append(sampleN, n)
			return err
		case 4:
			var id, fn uint64
			var haveLine bool
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine:
					haveLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for i, loc := range sampleLoc {
		name := ""
		if s := funcName[locFunc[loc]]; s < uint64(len(strs)) {
			name = strs[s]
		}
		counts[layerOf(name)] += float64(sampleN[i])
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// fields calls f for every field of the protobuf message in data: v holds
// a varint or fixed value, b the bytes of a length-delimited field.
func fields(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// firstVarint returns the first element of a repeated varint field, which
// arrives either packed (b) or as one unpacked value (v).
func firstVarint(v uint64, b []byte) (uint64, bool) {
	if b == nil {
		return v, true
	}
	x, n := binary.Uvarint(b)
	return x, n > 0
}
