package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the classes a CPU sample is attributed to: the repo
// modules by package name, the wire codec, socket I/O, the HTTP stack,
// the benchmark's own load generator, the Go runtime, and "other" for
// the remaining repro/internal packages. "gc" is kept apart from the
// phases because background marking serves every layer.
var layers = []string{
	"space", "core", "simnet", "gossip", "consensus", "mape", "verify", "orchestrate",
	"dataflow", "crdt", "pubsub", "observatory", "realnet", "serve",
	"wire", "socket", "http", "load", "runtime", "other",
}

var namedLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

const internalPrefix = "repro/internal/"

// selfPackage is this program's own package as it appears in profiles:
// "main" in the benchmark binary, its import path in a test binary.
var selfPackage = funcPackage(runtime.FuncForPC(reflect.ValueOf(funcPackage).Pointer()).Name())

// classify attributes one sample's stack, given leaf first as function
// names, to a layer. gcBgMarkWorker anywhere in the stack is "gc".
// Otherwise the first frame from the leaf that belongs to a class
// decides: encoding/gob is "wire"; syscall, internal/poll and net
// (not net/http) are "socket"; net/http is "http"; a repro/internal
// package is its own layer (or "other" when it has no layer of its
// own); the benchmark's main package is "load". A stack with none of
// these is "runtime".
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case pkg == "encoding/gob":
			return "wire"
		case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "net/netip":
			return "socket"
		case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
			return "http"
		case strings.HasPrefix(pkg, internalPrefix):
			name := strings.TrimPrefix(pkg, internalPrefix)
			name, _, _ = strings.Cut(name, "/")
			if namedLayer[name] {
				return name
			}
			return "other"
		case pkg == selfPackage:
			return "load"
		}
	}
	return "runtime"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/gossip.(*Protocol).handle" or "net.(*conn).Read".
// Type arguments, which may hold other import paths, are cut first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ledger accumulates CPU time by phase and layer over one traced pass,
// both from the profiles and from the process's CPU clock over the
// same windows.
type ledger struct {
	dir     string
	windows int
	cpu     map[string]time.Duration // by "<phase>.<layer>" and "gc"
	rusage  time.Duration            // process CPU over every profiled window
	cost    time.Duration            // the same, plus stopping each profile
	profile time.Duration            // sum of every profile's samples

	// Heap activity over the profiled windows, from runtime.MemStats.
	allocBytes map[string]uint64 // by phase
	mallocs    uint64
	gcCycles   uint32
}

func newLedger(dir string) *ledger {
	return &ledger{dir: dir, cpu: make(map[string]time.Duration), allocBytes: make(map[string]uint64)}
}

// measure runs fn under the CPU profiler and books its samples to
// phase ("setup" or "run"). The profile is kept in the ledger's
// directory for `go tool pprof`.
func (l *ledger) measure(phase string, fn func()) error {
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	c0 := cpuTime()
	fn()
	// Stopping symbolizes and compresses the profile with sampling
	// already off, so the window the profile covers ends here.
	c1 := cpuTime()
	pprof.StopCPUProfile()
	l.rusage += c1 - c0
	l.cost += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	l.allocBytes[phase] += m1.TotalAlloc - m0.TotalAlloc
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.gcCycles += m1.NumGC - m0.NumGC
	l.windows++
	path := filepath.Join(l.dir, fmt.Sprintf("%s-%03d.pb.gz", phase, l.windows))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, s := range samples {
		layer := classify(s.stack)
		key := phase + "." + layer
		if layer == "gc" {
			key = "gc"
		}
		l.cpu[key] += s.cpu
		l.profile += s.cpu
	}
	return nil
}

// report sets cpu.<phase>.<layer>_s for every phase and layer, cpu.gc_s,
// and the profile's coverage of the process CPU clock.
func (l *ledger) report(o *outcome) {
	for _, phase := range []string{"setup", "run"} {
		for _, layer := range layers {
			o.set("cpu."+phase+"."+layer+"_s", l.cpu[phase+"."+layer].Seconds())
		}
	}
	o.set("cpu.gc_s", l.cpu["gc"].Seconds())
	o.set("trace.cpu_s", l.rusage.Seconds())
	o.set("setup.alloc_mb", float64(l.allocBytes["setup"])/1e6)
	o.set("runtime.alloc_mb", float64(l.allocBytes["setup"]+l.allocBytes["run"])/1e6)
	o.set("runtime.allocs", float64(l.mallocs))
	o.set("runtime.gc_cycles", float64(l.gcCycles))
	if l.rusage > 0 {
		o.set("trace.attributed_frac", float64(l.profile)/float64(l.rusage))
	}
}

// sample is one CPU profile sample: its stack as function names, leaf
// first (inlined frames included), and the CPU time it stands for.
type sample struct {
	stack []string
	cpu   time.Duration
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs. The format is decoded
// by hand because the module takes no dependencies.
func parseCPUProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeUnits []uint64                // string index of each sample type's unit
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		locs      [][]uint64
		vals      [][]uint64
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type {type=1, unit=2}
			return walkProto(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					typeUnits = append(typeUnits, v)
				}
				return nil
			})
		case 2: // sample {location_id=1, value=2}
			var l, vs []uint64
			err := walkProto(b, func(f, w int, v uint64, pb []byte) error {
				var err error
				switch f {
				case 1:
					l, err = appendVarints(l, w, v, pb)
				case 2:
					vs, err = appendVarints(vs, w, v, pb)
				}
				return err
			})
			locs, vals = append(locs, l), append(vals, vs)
			return err
		case 4: // location {id=1, line=4 {function_id=1}}
			var id uint64
			var funcs []uint64
			err := walkProto(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function {id=1, name=2}
			var id, name uint64
			err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
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
	cpuIndex := -1
	for i, u := range typeUnits {
		if str(u) == "nanoseconds" {
			cpuIndex = i
		}
	}
	if cpuIndex < 0 {
		return nil, errors.New("profile has no sample type in nanoseconds")
	}
	out := make([]sample, len(locs))
	for i := range locs {
		if cpuIndex >= len(vals[i]) {
			return nil, errors.New("sample has too few values")
		}
		out[i].cpu = time.Duration(vals[i][cpuIndex])
		for _, id := range locs[i] {
			for _, fid := range locFuncs[id] {
				out[i].stack = append(out[i].stack, str(funcName[fid]))
			}
		}
	}
	return out, nil
}

// walkProto calls fn for each field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkProto(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which arrives either
// packed (one length-delimited run of varints) or as a single varint.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
