package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough (samples, locations with inline lines, functions,
// strings) to fold CPU samples into layers. The standard library has no
// decoder and the benchmark takes no dependencies.

type profFunc struct {
	name, file string
}

// profSample is one stack, leaf first (inlined frames expanded, innermost
// first), with its CPU nanoseconds.
type profSample struct {
	stack []profFunc
	nanos int64
}

type profiler struct {
	buf bytes.Buffer
}

// startProfiler begins a CPU profile into memory.
func startProfiler() *profiler {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		// Another profile is running: the layer table will report that.
		return p
	}
	return p
}

// stop ends the profile and folds it into layers.
func (p *profiler) stop() (*layerTimes, error) {
	pprof.StopCPUProfile()
	if p.buf.Len() == 0 {
		return nil, errors.New("empty CPU profile")
	}
	ss, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return foldLayers(ss), nil
}

type protoReader struct {
	b   []byte
	off int
}

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.b) {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one key and returns its number, wire type, and either the
// varint value or the length-delimited bytes.
func (r *protoReader) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if r.off+8 > len(r.b) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.off += 8
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)-r.off) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data = r.b[r.off : r.off+int(n)]
			r.off += int(n)
		}
	case 5:
		if r.off+4 > len(r.b) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.off += 4
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, v uint64, data []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	r := protoReader{b: data}
	for r.off < len(r.b) {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, x)
	}
	return into, nil
}

func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indexes
		samples    []rawSample
		locLines   = map[uint64][]uint64{}  // location -> function ids, innermost first
		funcs      = map[uint64][2]uint64{} // function -> (name, file) string indexes
	)
	r := protoReader{b: raw}
	for r.off < len(r.b) {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		sub := protoReader{b: data}
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			for sub.off < len(sub.b) {
				n, _, v, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
			}
			sampleType = append(sampleType, vt)
		case 2: // sample
			var s rawSample
			for sub.off < len(sub.b) {
				n, w, v, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(w, v, d, s.locs)
				case 2:
					s.vals, err = uints(w, v, d, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for sub.off < len(sub.b) {
				n, _, v, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					lr := protoReader{b: d}
					for lr.off < len(lr.b) {
						ln, _, lv, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var nf [2]uint64
			for sub.off < len(sub.b) {
				n, _, v, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
			}
			funcs[id] = nf
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valIdx := -1
	for i, vt := range sampleType {
		if str(vt[1]) == "nanoseconds" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.vals) {
			continue
		}
		ps := profSample{nanos: int64(s.vals[valIdx])}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				ps.stack = append(ps.stack, profFunc{name: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
