package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
)

// layers are the repository's modules as the per-layer table reports
// them. noc is split by receiver type: the network interfaces (masterNI,
// slaveNI) against everything else, which is the router fabric. runtime
// takes every sample with no frame in the repository's internal
// packages: GC, allocation, the scheduler and the benchmark itself.
var layers = []string{
	"sim", "shard", "noc.router", "noc.ni", "amba", "core", "cpu", "cache", "mem",
	"ocp", "trace", "stochastic", "analytic", "sweep", "prog", "platform", "runtime",
}

// packageLayer maps each internal package to its layer. Packages that are
// not layers of their own join the layer they serve.
var packageLayer = map[string]string{
	"sim": "sim", "simtest": "sim", "guard": "sim",
	"shard": "shard",
	"amba":  "amba",
	"core":  "core", "replay": "core",
	"cpu":        "cpu",
	"cache":      "cache",
	"mem":        "mem",
	"ocp":        "ocp",
	"trace":      "trace",
	"stochastic": "stochastic", "valid": "stochastic",
	"analytic": "analytic",
	"sweep":    "sweep", "scenario": "sweep", "journal": "sweep", "drain": "sweep",
	"prog":     "prog",
	"platform": "platform", "exp": "platform", "layout": "platform",
	"prof": "runtime",
}

const repoPrefix = "noctg/internal/"

// layerOf returns the layer of a fully qualified Go function name, or ""
// when the function is not in the repository's internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	pkg := rest[:dot]
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "noc" {
		switch receiver(rest[dot+1:]) {
		case "masterNI", "slaveNI":
			return "noc.ni"
		}
		return "noc.router"
	}
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	fmt.Fprintf(os.Stderr, "perfbench: package %s has no layer; counted as runtime\n", pkg)
	packageLayer[pkg] = "runtime" // warn once
	return "runtime"
}

// receiver returns the receiver type of a method symbol such as
// "(*router).tick" or "masterNI.idle", or "" for a plain function.
func receiver(sym string) string {
	if rest, ok := strings.CutPrefix(sym, "(*"); ok {
		if i := strings.IndexByte(rest, ')'); i >= 0 {
			return stripTypeArgs(rest[:i])
		}
		return ""
	}
	if i := strings.IndexByte(sym, '.'); i >= 0 {
		return stripTypeArgs(sym[:i])
	}
	return ""
}

func stripTypeArgs(s string) string {
	if i := strings.IndexByte(s, '['); i >= 0 {
		return s[:i]
	}
	return s
}

// profile is the part of a pprof profile the fold reads: each sample's
// call stack, leaf first, as function names (inlined frames expanded,
// innermost first), and its CPU time.
type profile struct {
	samples []sample
}

type sample struct {
	stack []string
	ns    int64
}

// layerFold is a profile's CPU time by layer.
type layerFold struct {
	ns      map[string]int64
	totalNS int64
}

// foldProfile attributes each sample to the layer of its leaf-most frame
// in the repository, or to runtime when no frame is.
func foldProfile(p *profile) layerFold {
	f := layerFold{ns: map[string]int64{}}
	for _, s := range p.samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		f.ns[layer] += s.ns
		f.totalNS += s.ns
	}
	return f
}

// table renders the fold as one line per layer: share of CPU time and
// host ns per simulated cycle.
func (f layerFold) table(cycles uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %14s\n", "layer", "cpu%", "ns/cycle")
	order := append([]string(nil), layers...)
	sort.SliceStable(order, func(i, j int) bool { return f.ns[order[i]] > f.ns[order[j]] })
	for _, l := range order {
		share := 0.0
		if f.totalNS > 0 {
			share = 100 * float64(f.ns[l]) / float64(f.totalNS)
		}
		fmt.Fprintf(&b, "%-12s %7.2f%% %14.4g\n", l, share, float64(f.ns[l])/float64(cycles))
	}
	return b.String()
}

// startProfile starts the process CPU profile into memory; the returned
// function stops it and decodes it.
func startProfile() (func() (*profile, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() (*profile, error) {
		pprof.StopCPUProfile()
		return decodeProfile(buf.Bytes())
	}, nil
}

// decodeProfile parses a gzipped profile.proto message, as runtime/pprof
// writes it, without a protobuf library.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName    = map[uint64]uint64{}   // function id → string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, &s.locs)
				case 2:
					return varints(v, b, &s.values)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &profile{}
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: int64(rs.values[cpu])}
		for _, l := range rs.locs {
			for _, fn := range locLines[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks the fields of one protobuf message, calling fn with each
// field number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// varints appends a repeated varint field, packed (data set) or not.
func varints(v uint64, data []byte, out *[]uint64) error {
	if data == nil {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}
