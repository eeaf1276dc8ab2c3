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

// layerOf maps a Go package path to the layer its CPU time is charged
// to. The benchmark's own package (main) is the harness; packages not
// listed fall in "other", and samples with no repro frame at all (GC
// workers, the scheduler) in "runtime".
func layerOf(pkg string) string {
	switch {
	case pkg == "main":
		return "harness"
	case pkg == "repro/internal/explore":
		return "explore"
	case pkg == "repro/internal/pmem":
		return "pmem"
	case pkg == "repro/internal/persist" || strings.HasPrefix(pkg, "repro/internal/persist/") || pkg == "repro/internal/px86":
		return "persist"
	case pkg == "repro/internal/trace":
		return "trace"
	case pkg == "repro/internal/core" || pkg == "repro/internal/vclock" || pkg == "repro/internal/intervals":
		return "core"
	case pkg == "repro/internal/interp" || pkg == "repro/internal/lang":
		return "interp"
	case strings.HasPrefix(pkg, "repro/internal/benchmarks") || pkg == "repro/internal/workload" || pkg == "repro/internal/pmlib":
		return "benchmarks"
	}
	return "other"
}

// funcPackage returns the package path of a symbol name such as
// "repro/internal/px86.(*Machine).Store" or "main.main". Type
// arguments of a generic instantiation may hold paths, so they are cut
// off first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the samples. A sample is charged to its innermost
// frame in a repro package or in main, so runtime work a layer causes
// (channel parks under pmem, allocation under trace) counts as that
// layer's.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "runtime"
	frames:
		for _, id := range s.locs {
			for _, fn := range p.locs[id] {
				pkg := funcPackage(p.strings[p.funcs[fn]])
				if pkg == "main" || strings.HasPrefix(pkg, "repro/") {
					layer = layerOf(pkg)
					break frames
				}
			}
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = float64(n) / float64(max(total, 1))
	}
	return shares, total, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProto = errors.New("malformed profile")

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, errProto
	}
	p.b = p.b[n:]
	return v, nil
}

// field reads one field: its number, wire type, varint value (wire type
// 0) or payload (wire type 2).
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, payload, err
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pb := pbuf{payload}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			pb := pbuf{payload}
			for len(pb.b) > 0 {
				f, w, v, pl, err := pb.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					vals, err = uints(vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			pb := pbuf{payload}
			for len(pb.b) > 0 {
				f, _, v, pl, err := pb.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lb := pbuf{pl}
					for len(lb.b) > 0 {
						lf, _, lv, _, err := lb.field()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			pb := pbuf{payload}
			for len(pb.b) > 0 {
				f, _, v, _, err := pb.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	if len(p.strings) == 0 {
		return nil, errProto
	}
	for _, fn := range p.funcs {
		if fn < 0 || fn >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
