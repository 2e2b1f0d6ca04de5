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

// The standard library writes CPU profiles as gzipped protocol buffers
// (github.com/google/pprof/proto/profile.proto) but has no public reader,
// so this file decodes the few fields the per-layer split needs.

// Layers the CPU profile is folded into. A sample is charged to the
// package of its leaf frame. When the leaf is in the Go runtime, the
// sample goes to runtime_gc if the stack is allocating or collecting, to
// runtime_sched if it is in a channel operation, select, park or the
// scheduler (the core/kernel handshake), and otherwise to the package of
// the nearest caller outside the runtime (a map lookup in the router is
// router time).
var layers = []string{
	"sim", "noc", "coherence", "cpu", "workload", "system", "energy",
	"experiments", "runtime_sched", "runtime_gc", "runtime_other", "other",
}

var packageLayer = map[string]string{
	"repro/internal/sim":         "sim",
	"repro/internal/noc":         "noc",
	"repro/internal/coherence":   "coherence",
	"repro/internal/cpu":         "cpu",
	"repro/internal/workload":    "workload",
	"repro/internal/traffic":     "workload",
	"repro/internal/system":      "system",
	"repro/internal/metrics":     "system",
	"repro/internal/fault":       "system",
	"repro/internal/energy":      "energy",
	"repro/internal/dsent":       "energy",
	"repro/internal/mcpat":       "energy",
	"repro/internal/tech":        "energy",
	"repro/internal/photonics":   "energy",
	"repro/internal/experiments": "experiments",
	"repro/internal/resultstore": "experiments",
	"repro/internal/report":      "experiments",
}

var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime._GC",
}

var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
	"runtime.selectnb", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.findRunnable",
	"runtime.gosched", "runtime.goexit0", "runtime.newproc", "runtime.semacquire",
	"runtime.semrelease", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.handoffp", "runtime.sysmon",
	"runtime.execute", "runtime.runqsteal", "runtime.stealWork",
}

func hasPrefixIn(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/noc.(*router).tick".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || pkg == "sync" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "sync/")
}

// layerOf classifies one sample's stack, leaf frame first.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if pkg := funcPackage(stack[0]); !isRuntime(pkg) {
		return pkgLayer(pkg)
	}
	for _, f := range stack {
		if hasPrefixIn(f, gcFrames) {
			return "runtime_gc"
		}
	}
	for _, f := range stack {
		if hasPrefixIn(f, schedFrames) {
			return "runtime_sched"
		}
	}
	for _, f := range stack {
		if pkg := funcPackage(f); !isRuntime(pkg) {
			return pkgLayer(pkg)
		}
	}
	return "runtime_other"
}

func pkgLayer(pkg string) string {
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	return "other"
}

// foldProfile decodes a gzipped CPU profile and adds each sample's CPU
// nanoseconds to its layer in into. It returns the number of samples.
func foldProfile(data []byte, into map[string]int64) (int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		valueType [][2]uint64 // (type, unit) string indices
		samples   [][]byte
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valueType = append(valueType, vt)
			return err
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
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
			err := eachField(b, func(n int, v uint64, _ []byte) error {
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
		return 0, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIx := len(valueType) - 1
	for i, vt := range valueType {
		if str(vt[0]) == "cpu" {
			cpuIx = i
		}
	}
	for _, sb := range samples {
		var locs, vals []uint64
		err := eachField(sb, func(n int, v uint64, b []byte) (err error) {
			switch n {
			case 1:
				locs, err = appendVarints(locs, v, b)
			case 2:
				vals, err = appendVarints(vals, v, b)
			}
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("profile: %w", err)
		}
		if cpuIx < 0 || cpuIx >= len(vals) {
			return 0, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locLines[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		into[layerOf(stack)] += int64(vals[cpuIx])
	}
	return len(samples), nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field (nil
// otherwise).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("short fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field to dst: one value v, or
// the packed values in b.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}
