package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one resolved stack frame of a CPU-profile sample.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// stackSample is one CPU-profile sample: frames innermost first, and the
// CPU time the sample stands for.
type stackSample struct {
	frames []frame
	ns     int64
}

// cpuLayers are the buckets host CPU time is folded into, one per module of
// the simulator plus the Go runtime and the benchmark itself.
var cpuLayers = []string{
	"topology", "fabric", "mem", "cache", "sim", "pmu", "vtime", "task",
	"core.ctx", "core.lockstep", "core.job", "core.worker",
	"place", "admit", "tenant", "power", "fault", "obs",
	"workloads", "rng", "baselines", "charm", "go-runtime", "bench",
}

var isCPULayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range cpuLayers {
		m[l] = true
	}
	return m
}()

// coreFileLayer splits package core by source file: the task-side access
// path, the lockstep baton, and the job service; the rest is the worker.
var coreFileLayer = map[string]string{
	"ctx.go":      "core.ctx",
	"fastpath.go": "core.ctx",
	"lockstep.go": "core.lockstep",
	"job.go":      "core.job",
	"tenants.go":  "core.job",
}

// frameLayer names the layer a frame belongs to, or "" for a frame outside
// the module (Go runtime, standard library).
func frameLayer(f frame) string {
	const internal = "charm/internal/"
	switch {
	case strings.HasPrefix(f.fn, "main."), strings.HasPrefix(f.fn, "charm/bench."):
		return "bench"
	case strings.HasPrefix(f.fn, "charm."):
		return "charm"
	case strings.HasPrefix(f.fn, internal):
		pkg := f.fn[len(internal):]
		pkg = pkg[:strings.IndexAny(pkg+".", "./")]
		if pkg == "core" {
			if l, ok := coreFileLayer[path.Base(f.file)]; ok {
				return l
			}
			return "core.worker"
		}
		if isCPULayer[pkg] {
			return pkg
		}
		return "charm" // a module package this ledger has no bucket for
	}
	return ""
}

// foldProfile charges each sample to the innermost module frame on its
// stack, so sync and runtime time called from a layer counts against that
// layer; a stack with no module frame (GC, idle scheduler) is "go-runtime".
// The buckets sum to the profile total.
func foldProfile(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		layer := "go-runtime"
		for _, f := range s.frames {
			if l := frameLayer(f); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}

// ---- profile.proto reader ---------------------------------------------------
//
// runtime/pprof writes a gzipped protobuf (github.com/google/pprof
// proto/profile.proto). Only the fields the folder needs are decoded:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2, filename=4}.

var errProto = errors.New("bench: malformed profile.proto")

// protoField is one decoded field: a varint/fixed value or a byte slice.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// eachField decodes the fields of one message in order.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile into stack samples. The
// sample value taken is the last one, which for CPU profiles is nanoseconds.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2:
			var s rawSample
			err := eachField(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					s.vals, err = repeatedVarints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					return eachField(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var fn rawFunc
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					fn.name = g.val
				case 4:
					fn.file = g.val
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6:
			strs = append(strs, string(f.data))
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
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				ss.frames = append(ss.frames, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
