package main

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes, folding samples by Go package: a package's self share counts the
// samples whose leaf frame is in it, its cumulative share the samples with
// any frame in it. Only the profile fields the fold needs are decoded.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileFold is a CPU profile folded by package.
type profileFold struct {
	samples   int64
	self, cum map[string]int64
	// gc counts samples inside the collector (background marking, assists,
	// sweeping); malloc samples inside the allocator.
	gc, malloc int64
}

func (f *profileFold) pct(n int64) float64 {
	if f.samples == 0 {
		return 0
	}
	return 100 * float64(n) / float64(f.samples)
}

// gcRoots are the runtime entry points of garbage-collection work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf maps a function's package path to the layer it is reported
// under: the module's own packages by their short name, the runtime as
// "runtime", everything else (other standard-library packages, the
// benchmark itself) as "".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime":
		return "runtime"
	case strings.HasPrefix(pkg, "fastiov/internal/"):
		return strings.TrimPrefix(pkg, "fastiov/internal/")
	}
	return ""
}

// packageOf extracts the import path from a symbol name such as
// "fastiov/internal/sim.(*Queue[...]).Pop".
func packageOf(fn string) string {
	end := strings.IndexAny(fn, "([")
	if end < 0 {
		end = len(fn)
	}
	prefix := fn[:end]
	slash := strings.LastIndex(prefix, "/")
	dot := strings.Index(prefix[slash+1:], ".")
	if dot < 0 {
		return prefix
	}
	return prefix[:slash+1+dot]
}

// foldProfile decodes a CPU profile and folds it by layer.
func foldProfile(data []byte) (*profileFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sampleRec
		strs      []string
		funcNames = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sampleRec
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
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
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	name := func(fid uint64) string {
		if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	fold := &profileFold{self: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range samples {
		fold.samples += s.count
		seen := map[string]bool{}
		leaf := true
		var gc, malloc bool
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				fn := name(fid)
				layer := layerOf(fn)
				if leaf {
					fold.self[layer] += s.count
					leaf = false
				}
				if !seen[layer] {
					seen[layer] = true
					fold.cum[layer] += s.count
				}
				gc = gc || gcRoots[fn]
				malloc = malloc || fn == "runtime.mallocgc"
			}
		}
		if gc {
			fold.gc += s.count
		}
		if malloc {
			fold.malloc += s.count
		}
	}
	return fold, nil
}

// walk calls fn for each field of a protobuf message: v is the value of a
// varint field, b the payload of a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (b) or
// not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
