// Command sweep runs one-dimensional parameter sweeps and emits CSV.
// System sweeps report runtime, energy, and E-D product per swept value,
// generalizing the fixed sweeps behind Figs 9, 11, 13, 15 and 16. The
// load sweep is Fig 3's network-only experiment: latency per offered load
// and ATAC+ routing scheme.
//
// Usage:
//
//	sweep -param flit   -values 16,32,64,128,256 -bench radix
//	sweep -param rthres -values 2,4,8,12         -bench ocean_contig
//	sweep -param sharers -values 4,8,16,32       -bench barnes
//	sweep -param load -values 1,2,4,8,12,16      (Fig 3's loads, in %)
//	sweep -param load -pattern tornado -values 2,5,10,20
//
// Every sweep runs through the campaign engine shared with cmd/figures:
// points run concurrently (up to -jobs), results persist in the on-disk
// cache, runs are journaled next to it, failed points emit a "# ..."
// comment row instead of killing the sweep, and a SIGINT/SIGTERM drains
// in-flight runs before emitting what completed.
// Exit codes: 0 complete, 1 fatal, 3 some points failed, 4 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/photonics"
	"repro/internal/tech"
	"repro/internal/traffic"
	"repro/internal/version"
)

// options is sweep's parsed command line.
type options struct {
	param, values, bench, net, pattern, tech, optics string

	cores   int
	seed    int64
	version bool
	runner  experiments.RunnerFlags
}

// bindFlags registers sweep's flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{runner: experiments.DefaultRunnerFlags()}
	fs.StringVar(&o.param, "param", "flit", "swept parameter: flit, rthres, sharers, load")
	fs.StringVar(&o.values, "values", "", "comma-separated integer values (load: percent of a flit/cycle/core)")
	fs.StringVar(&o.bench, "bench", "radix", "benchmark (system sweeps)")
	fs.StringVar(&o.net, "net", "atac+", "network (system sweeps; load sweeps use ATAC+): pure, bcast, atac, atac+, corona, hybrid")
	fs.IntVar(&o.cores, "cores", 64, "total cores")
	fs.StringVar(&o.pattern, "pattern", "uniform", "traffic pattern (load sweeps): "+strings.Join(traffic.Patterns(), ", "))
	fs.StringVar(&o.tech, "tech", "", "electrical technology scenario: "+strings.Join(tech.Scenarios(), ", ")+" (default 11nm)")
	fs.StringVar(&o.optics, "optics", "", "optical technology scenario: "+strings.Join(photonics.Variants(), ", ")+" (default baseline)")
	fs.Int64Var(&o.seed, "seed", 42, "seed")
	fs.BoolVar(&o.version, "version", false, "print the build version and exit")
	o.runner.Register(fs)
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(run(o))
}

func run(o *options) int {
	if o.version {
		fmt.Println(version.String())
		return 0
	}
	vals, err := parseInts(o.values)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	if len(vals) == 0 {
		log.Print("no -values given")
		return experiments.ExitFatal
	}

	// Reject bad input before opening the cache or simulating anything.
	var cfgs []config.Config
	switch o.param {
	case "load":
		if !slices.Contains(traffic.Patterns(), o.pattern) {
			log.Printf("unknown -pattern %q", o.pattern)
			return experiments.ExitFatal
		}
	case "flit", "rthres", "sharers":
		g := experiments.Geometry{Net: o.net, Cores: o.cores, Seed: o.seed, Tech: o.tech, Optics: o.optics}
		if cfgs, err = systemConfigs(o.param, g, vals); err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
	default:
		log.Printf("unknown -param %q", o.param)
		return experiments.ExitFatal
	}

	r, closeRunner, err := o.runner.Open(experiments.Options{Cores: o.cores, Scale: 1, Seed: o.seed,
		Tech: o.tech, Optics: o.optics})
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeRunner()
	ctx, stopSignals := r.InstallSignalHandler(o.runner.Grace, log.Printf)
	defer stopSignals()

	if o.param == "load" {
		loadSweep(ctx, r, o.pattern, vals, os.Stdout)
	} else if err := systemSweep(ctx, r, o.param, o.bench, vals, cfgs, os.Stdout); err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	fmt.Fprintf(os.Stderr, "done: %d simulations run, %d recalled from cache\n", r.FreshRuns(), r.CacheHits())
	return r.ExitCode()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// systemConfigs builds and validates one configuration per swept value.
// Every point goes through experiments.BuildConfig, so the -tech/-optics
// scenario lands in the run keys (and energy models) exactly as it does
// in the other front ends.
func systemConfigs(param string, g experiments.Geometry, vals []int) ([]config.Config, error) {
	cfgs := make([]config.Config, 0, len(vals))
	for _, v := range vals {
		cfg, err := experiments.BuildConfig(g)
		if err != nil {
			return nil, err
		}
		switch param {
		case "flit":
			cfg.Network.FlitBits = v
		case "rthres":
			cfg.Network.Routing = config.DistanceRouting
			cfg.Network.RThres = v
		case "sharers":
			cfg.Coherence.Sharers = v
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("value %d: %v", v, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// systemSweep runs bench on every configuration and writes one CSV row
// per swept value. The whole set goes to the campaign engine first, so
// points run concurrently and repeat invocations hit the cache.
func systemSweep(ctx context.Context, r *experiments.Runner, param, bench string, vals []int, cfgs []config.Config, w io.Writer) error {
	specs := make([]experiments.RunSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = experiments.RunSpec{Cfg: cfg, Bench: bench}
	}
	// Errors are surfaced per-point below, as comment rows in the CSV; an
	// entirely failed sweep still emits its header and comments.
	_ = r.RunAll(ctx, specs)

	fmt.Fprintf(w, "%s,cycles,instructions,energy_mJ,edp_uJs\n", param)
	for i, v := range vals {
		res, err := r.Run(cfgs[i], bench)
		if err != nil {
			fmt.Fprintf(w, "# value %d failed: %v\n", v, err)
			continue
		}
		m, err := energy.Build(cfgs[i])
		if err != nil {
			return err
		}
		bd := energy.Combine(m, res)
		fmt.Fprintf(w, "%d,%d,%d,%.4f,%.4f\n", v, res.Cycles, res.Instructions,
			bd.Total()*1e3, energy.EDP(m, res)*1e6)
	}
	return nil
}

// loadSweep runs Fig 3's measurement (see experiments.Fig3Spec) with the
// given traffic pattern at each offered load, in percent of a flit per
// cycle per core, for every Fig 3 routing scheme of ATAC+. It writes one
// CSV row per load and scheme.
func loadSweep(ctx context.Context, r *experiments.Runner, pattern string, percents []int, w io.Writer) {
	cfg := r.Opt.Config(config.ATACPlus)
	schemes := experiments.Fig3Schemes(cfg.MeshDim())
	loads := make([]float64, len(percents))
	for i, pc := range percents {
		loads[i] = float64(pc) / 100
	}
	// Per-point errors surface as comment rows below.
	_ = r.RunAll(ctx, r.SynthSpecs(schemes, loads, experiments.Fig3Spec(pattern, 0)))

	fmt.Fprintln(w, "load_pct,scheme,injected,delivered,mean_lat,p50,p95,p99,max")
	for i, pc := range percents {
		sp := experiments.Fig3Spec(pattern, loads[i])
		for _, sch := range schemes {
			res, err := r.RunSynthetic(r.Opt.SchemeConfig(sch), sp)
			if err != nil {
				fmt.Fprintf(w, "# load %d %s failed: %v\n", pc, sch.Name, err)
				continue
			}
			s := res.Synth
			fmt.Fprintf(w, "%d,%s,%d,%d,%.2f,%d,%d,%d,%d\n", pc, sch.Name, s.Injected, s.Delivered,
				s.MeanLat, s.P50Lat, s.P95Lat, s.P99Lat, s.MaxLat)
		}
	}
}
