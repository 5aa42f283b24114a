package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// protocol buffers in the pprof profile.proto format), so the traced
// run can fold its own profile into per-layer self time without any
// module outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one profile sample: its call stack as function names,
// innermost (leaf) first, and the CPU time it stands for.
type profSample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped pprof profile into samples.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeNames []int64 // sample_type[i].type as a string index
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
	)
	err = forFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return forFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id uint64
			var name int64
			err := forFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valIdx := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.values) {
			continue
		}
		ps := profSample{ns: s.values[valIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// forFields walks the fields of one protobuf message, calling fn with
// the field number and either its varint value or its bytes.
func forFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or
// not (one value v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// uvarint decodes one base-128 varint, returning the byte count (<= 0
// on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf maps a profiled function name to the stack layer that owns
// it. ok is false for standard-library code outside the Go runtime,
// whose time belongs to the nearest calling layer.
func layerOf(fn string) (layer string, ok bool) {
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime", true
	case pkg == "main" || pkg == "repro/perfbench": // this benchmark (as a binary, as a test)
		return "bench", true
	case strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "apps", true
	case strings.HasPrefix(pkg, "repro/internal/"):
		l := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(l, '/'); i >= 0 {
			l = l[:i] // rts/scheck -> rts, orca/std -> orca
		}
		return l, true
	}
	return "", false
}

// pkgOf extracts the import path from a symbol name such as
// "repro/internal/orca.(*Proc).Invoke" or "runtime.gopark".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// foldSelf charges each sample's time to the innermost frame that
// belongs to a layer (see layerOf), giving each layer's self time.
// Samples with no such frame land in "other".
func foldSelf(samples []profSample, into map[string]int64) {
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		into[layer] += s.ns
	}
}
