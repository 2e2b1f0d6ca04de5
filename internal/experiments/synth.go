// Synthetic network-only runs.
//
// Fig 3 and `sweep -param load` drive uniform-random (and other) traffic
// patterns through a bare fabric with no cores or coherence; runSynthetic
// is the one implementation of such a run. Fig 3 calls it directly. The
// load sweep encodes each run as a pseudo-benchmark name ("synth:...") so
// it flows through the Runner unchanged and inherits the singleflight
// dedup, worker pool, persistent cache and journal that the application
// campaigns already have. The latency statistics land in Result.Synth
// and are cached like any other result.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/traffic"
)

// SynthSpec describes one network-only synthetic-traffic run: the
// pattern, offered load in flits/cycle/core, broadcast fraction, and the
// warmup/measurement windows in cycles. The swept fabric (network kind,
// routing scheme, flit width, ...) lives in the config, as usual.
type SynthSpec struct {
	Pattern   string
	Load      float64
	BcastFrac float64
	Warmup    sim.Time
	Measure   sim.Time
}

// synthPrefix marks a pseudo-benchmark name as a synthetic run.
const synthPrefix = "synth:"

// synthDrainLimit bounds the post-measurement drain.
const synthDrainLimit = 20000

// Fig3Spec is the measurement behind Fig 3 at one offered load: the given
// pattern with 0.1% broadcasts, 3000 warmup and 6000 measured cycles.
func Fig3Spec(pattern string, load float64) SynthSpec {
	return SynthSpec{Pattern: pattern, Load: load, BcastFrac: 0.001, Warmup: 3000, Measure: 6000}
}

// Bench encodes the spec as a canonical pseudo-benchmark name. The
// encoding is part of the run's identity: it appears in the memo key and
// the persistent cache key, so two specs encode equal iff they describe
// the same measurement.
func (s SynthSpec) Bench() string {
	return fmt.Sprintf("%s%s:load=%g:bcast=%g:warmup=%d:measure=%d",
		synthPrefix, s.Pattern, s.Load, s.BcastFrac, s.Warmup, s.Measure)
}

// ParseSynthBench decodes a pseudo-benchmark name produced by Bench.
// Ordinary benchmark names return ok == false.
func ParseSynthBench(bench string) (SynthSpec, bool) {
	if !strings.HasPrefix(bench, synthPrefix) {
		return SynthSpec{}, false
	}
	parts := strings.Split(strings.TrimPrefix(bench, synthPrefix), ":")
	if len(parts) != 5 || parts[0] == "" {
		return SynthSpec{}, false
	}
	sp := SynthSpec{Pattern: parts[0]}
	for _, part := range parts[1:] {
		k, v, found := strings.Cut(part, "=")
		if !found {
			return SynthSpec{}, false
		}
		var err error
		switch k {
		case "load":
			sp.Load, err = strconv.ParseFloat(v, 64)
		case "bcast":
			sp.BcastFrac, err = strconv.ParseFloat(v, 64)
		case "warmup":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 64)
			sp.Warmup = sim.Time(n)
		case "measure":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 64)
			sp.Measure = sim.Time(n)
		default:
			return SynthSpec{}, false
		}
		if err != nil {
			return SynthSpec{}, false
		}
	}
	return sp, true
}

// RunSynthetic executes (or recalls) one synthetic run through the full
// memo/cache/journal pipeline. Concurrent calls for the same (config,
// spec) share one execution, exactly like application runs.
func (r *Runner) RunSynthetic(cfg config.Config, sp SynthSpec) (system.Result, error) {
	return r.Run(cfg, sp.Bench())
}

// SynthSpecs builds the RunSpec set of a (load x scheme) sweep for
// Prefetch: every offered load crossed with every named routing scheme,
// in that order.
func (r *Runner) SynthSpecs(schemes []RoutingScheme, loads []float64, sp SynthSpec) []RunSpec {
	var specs []RunSpec
	for _, load := range loads {
		s := sp
		s.Load = load
		for _, sch := range schemes {
			specs = append(specs, RunSpec{Cfg: r.Opt.SchemeConfig(sch), Bench: s.Bench()})
		}
	}
	return specs
}

// SchemeConfig derives the ATAC+ configuration for one Fig 3 routing
// scheme under these campaign options.
func (o Options) SchemeConfig(sch RoutingScheme) config.Config {
	cfg := o.Config(config.ATACPlus)
	cfg.Network.Routing = sch.Routing
	if sch.RThres > 0 {
		cfg.Network.RThres = sch.RThres
	}
	return cfg
}

// runSynthetic performs the actual network-only simulation: build the
// bare fabric the config names, drive the pattern through it, and fold
// the measurement into a Result whose Synth section carries the latency
// distribution. Deterministic for a given (config, spec), so it is as
// cacheable as an application run.
func runSynthetic(cfg config.Config, bench string, sp SynthSpec) (system.Result, error) {
	p, err := traffic.ByName(sp.Pattern, cfg.MeshDim(), sp.BcastFrac)
	if err != nil {
		return system.Result{}, err
	}
	var k sim.Kernel
	net := noc.New(&k, &cfg)
	res := traffic.Drive(&k, net, cfg.Cores, p, sp.Load, cfg.Network.FlitBits,
		sp.Warmup, sp.Measure, synthDrainLimit, cfg.Seed)
	return system.Result{
		Benchmark: bench,
		Cfg:       cfg,
		Cycles:    sp.Warmup + sp.Measure,
		Finished:  true,
		Net:       *net.Stats(),
		Synth: &system.SynthStats{
			Pattern:   res.Pattern,
			Load:      res.Load,
			BcastFrac: sp.BcastFrac,
			Injected:  res.Injected,
			Delivered: res.Delivered,
			MeanLat:   res.Latency.Mean(),
			P50Lat:    res.Latency.Percentile(50),
			P95Lat:    res.Latency.Percentile(95),
			P99Lat:    res.Latency.Percentile(99),
			MaxLat:    res.Latency.Max(),
		},
	}, nil
}
