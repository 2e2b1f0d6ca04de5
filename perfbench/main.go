// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed host time, checks every result,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload mesh_pure_256 --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span around every call it makes into the simulator, folds a
// CPU profile of the same run by package, and reports the per-layer
// metrics. perfbench/README.md defines every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/version"
)

// workDir holds the campaign caches and the trace files, inside the
// build directory the repository's .gitignore already names.
const workDir = ".bench_build/perfbench"

// setupReps is how many extra set-ups a run times before its passes, so
// setup_s is a median of several samples even when only two passes fit.
const setupReps = 3

var workloads = map[string]func(*bench) error{
	"mesh_pure_256":     func(b *bench) error { return b.runSims(meshPure256) },
	"atacplus_256_sync": func(b *bench) error { return b.runSims(atacPlus256Sync) },
	"campaign_16":       (*bench).runCampaign,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the host, toolchain and build a result came from.
type provenance struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	Revision    string `json:"revision"`
	CacheSchema int    `json:"cache_schema"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// passStats is what one pass over a workload measured.
type passStats struct {
	traced bool
	wall   time.Duration // the workload's timed work
	run    time.Duration // host time of fresh simulations
	cycles uint64        // simulated cycles of fresh simulations
	layer  map[string]float64
}

// bench is one run of one workload.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *tracer // the run's spans; nil unless trace

	attempted, failed int
	setupS            []float64 // seconds per set-up
	setupLayer        []map[string]float64
	passes            []passStats
	cpuNS             map[string]int64
	cpuSamples        int
	profileErr        error
}

// fail counts one failed operation and reports it on stderr.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// check counts one attempted operation, failed when err is non-nil.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.fail(err)
	}
}

// spans returns the tracer for a pass: the run's tracer on traced passes,
// nil (no spans) otherwise.
func (b *bench) spans(p *passStats) *tracer {
	if p.traced {
		return b.tr
	}
	return nil
}

// addSetup keeps the host time d of one set-up of the workload and, on
// a traced run, the self time of the set-up calls in the spans under
// root.
func (b *bench) addSetup(d time.Duration, tr *tracer, root int) {
	b.setupS = append(b.setupS, d.Seconds())
	if tr != nil {
		self := tr.selfByName(root)
		b.setupLayer = append(b.setupLayer, map[string]float64{
			"workload.spec_ms": ms(self["workload.ByName"]),
			"system.new_ms":    ms(self["system.New"]),
			"energy.build_us":  us(self["energy.Build"]),
		})
	}
}

// measure runs passes until the run's time is used, and at least two so
// every simulation is repeated. In a traced run every second pass is
// traced, and the untraced ones after the first, which also pays for
// growing the heap, are the reference for the overhead; so a traced run
// makes at least three passes. Each pass starts from a collected heap.
func (b *bench) measure(pass func(i int, p *passStats) error) error {
	minPasses := 2
	if b.trace {
		minPasses = 3
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minPasses || time.Since(start)+last <= b.seconds; i++ {
		p := passStats{traced: b.trace && i%2 == 1, layer: map[string]float64{}}
		runtime.GC()
		t0 := time.Now()
		var err error
		b.spans(&p).call("pass", func() { err = pass(i, &p) })
		if err != nil {
			return err
		}
		last = time.Since(t0)
		b.passes = append(b.passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d (traced %v): timed %.3f s, cpu %.3f s, whole pass %.3f s\n",
			i, p.traced, p.wall.Seconds(), p.layer["process.cpu_s"], last.Seconds())
	}
	return nil
}

// timed runs fn, a pass's timed work, and adds its allocation, its
// collections and (on a traced pass) its CPU profile to the pass.
func (b *bench) timed(p *passStats, fn func()) time.Duration {
	var prof bytes.Buffer
	if p.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			b.profileErr = err
			p.traced = false
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.layer["process.cpu_s"] += (cpuTime() - c0).Seconds()
	runtime.ReadMemStats(&m1)
	if p.traced {
		pprof.StopCPUProfile()
		n, err := foldProfile(prof.Bytes(), b.cpuNS)
		if err != nil {
			b.profileErr = err
		}
		b.cpuSamples += n
	}
	p.layer["runtime.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.layer["runtime.gc_count"] += float64(m1.NumGC - m0.NumGC)
	return d
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// endToEnd computes the end-to-end metrics from the untraced passes.
func (b *bench) endToEnd() map[string]metric {
	var wall, rate []float64
	for _, p := range b.passes {
		if p.traced {
			continue
		}
		wall = append(wall, p.wall.Seconds())
		if p.run > 0 {
			rate = append(rate, float64(p.cycles)/p.run.Seconds())
		}
	}
	return map[string]metric{
		"wall_s":           {median(wall), "s"},
		"setup_s":          {median(b.setupS), "s"},
		"sim_cycles_per_s": {median(rate), "1/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// perLayer computes the per-layer metrics: medians over the traced
// passes and set-ups, and the CPU split folded from their profiles.
func (b *bench) perLayer() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayerMetrics {
		out[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) {
		out[name] = metric{v, out[name].Unit}
	}
	medianOf := func(rows []map[string]float64) map[string]float64 {
		vals := map[string][]float64{}
		for _, r := range rows {
			for k, v := range r {
				vals[k] = append(vals[k], v)
			}
		}
		med := map[string]float64{}
		for k, v := range vals {
			med[k] = median(v)
		}
		return med
	}
	for k, v := range medianOf(b.setupLayer) {
		set(k, v)
	}
	var traced, untraced []float64
	var rows []map[string]float64
	for i, p := range b.passes {
		if p.traced {
			traced = append(traced, p.wall.Seconds())
			rows = append(rows, p.layer)
		} else if i > 0 {
			untraced = append(untraced, p.wall.Seconds())
		}
	}
	for k, v := range medianOf(rows) {
		set(k, v)
	}
	var total int64
	for _, ns := range b.cpuNS {
		total += ns
	}
	for _, l := range layers {
		if total > 0 {
			set("cpu_share."+l, float64(b.cpuNS[l])/float64(total))
		}
	}
	set("trace.profile_samples", float64(b.cpuSamples))
	if routerFlits := out["noc.mesh_router_flits"].Value; routerFlits > 0 {
		set("noc.ns_per_router_flit", out["system.run_s"].Value*1e9*out["cpu_share.noc"].Value/routerFlits)
	}
	if len(traced) > 0 && len(untraced) > 0 {
		set("trace.overhead_frac", median(traced)/median(untraced)-1)
	}
	return out
}

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mesh_pure_256, atacplus_256_sync or campaign_16")
		seed    = flag.Int64("seed", 42, "workload seed")
		seconds = flag.Int("seconds", 20, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1: record spans and a CPU profile and report per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (mesh_pure_256, atacplus_256_sync, campaign_16), --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	// The campaign opens its own caches; a cache named in the
	// environment would otherwise be attached by every new Runner.
	os.Unsetenv("REPRO_CACHE")

	prov := provenance{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: version.Revision(), CacheSchema: version.CacheSchema,
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	pj, _ := json.Marshal(prov) // a struct of strings and numbers always encodes
	fmt.Printf("provenance %s\n", pj)

	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, cpuNS: map[string]int64{}}
	if b.trace {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		b.attempted++
		b.fail(err)
	}
	if b.profileErr != nil {
		b.fail(fmt.Errorf("cpu profile: %w", b.profileErr))
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.trace {
		res.Metrics = b.perLayer()
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path, prov, b.cpuNS); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans ->", path)
		}
	} else {
		res.Metrics = b.endToEnd()
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// perLayerMetrics are the metrics a traced run reports, with their units.
// A layer a workload does not use reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"workload.spec_ms", "ms"},
	{"system.new_ms", "ms"},
	{"energy.build_us", "us"},
	{"system.run_s", "s"},
	{"system.sim_cycles", "count"},
	{"cpu.instructions", "count"},
	{"noc.ns_per_router_flit", "ns"},
	{"noc.injected_flits", "count"},
	{"noc.mesh_router_flits", "count"},
	{"noc.onet_flits", "count"},
	{"noc.avg_latency_cycles", "cycles"},
	{"coherence.l1d_misses", "count"},
	{"coherence.l2_misses", "count"},
	{"coherence.inv_bcasts", "count"},
	{"coherence.inv_unicasts", "count"},
	{"energy.combine_us", "us"},
	{"experiments.cold_prefetch_s", "s"},
	{"experiments.run_p50_ms", "ms"},
	{"experiments.run_p95_ms", "ms"},
	{"experiments.run_samples", "count"},
	{"experiments.pool_busy_frac", "frac"},
	{"experiments.warm_s", "s"},
	{"experiments.warm_prefetch_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.render_s", "s"},
	{"experiments.cold_fresh_runs", "count"},
	{"experiments.cold_cache_hits", "count"},
	{"experiments.warm_fresh_runs", "count"},
	{"experiments.warm_cache_hits", "count"},
	{"process.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_count", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.profile_samples", "count"},
	{"cpu_share.sim", "frac"},
	{"cpu_share.noc", "frac"},
	{"cpu_share.coherence", "frac"},
	{"cpu_share.cpu", "frac"},
	{"cpu_share.workload", "frac"},
	{"cpu_share.system", "frac"},
	{"cpu_share.energy", "frac"},
	{"cpu_share.experiments", "frac"},
	{"cpu_share.runtime_sched", "frac"},
	{"cpu_share.runtime_gc", "frac"},
	{"cpu_share.runtime_other", "frac"},
	{"cpu_share.other", "frac"},
}
