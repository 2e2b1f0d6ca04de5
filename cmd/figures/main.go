// Command figures regenerates every table and figure of the paper's
// evaluation section and writes them to stdout (and optionally a file).
//
// Usage:
//
//	figures -cores 256            # the whole campaign at 256 cores
//	figures -cores 1024 -only 8   # just Fig 8 at paper scale
//
// The campaign is crash-safe and resumable: run-state transitions are
// write-ahead journaled next to the result cache, a failed or panicking
// run degrades its figure cells instead of killing the campaign, and a
// SIGINT/SIGTERM drains in-flight runs (second signal, or -grace expiry,
// cancels them) before rendering what completed. Exit codes: 0 all runs
// completed, 1 fatal setup/I-O error, 3 finished degraded (some runs
// terminally failed), 4 interrupted (re-run the same command to resume).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"path/filepath"
	"strconv"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/photonics"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/tech"
	"repro/internal/version"
)

// options is figures' parsed command line.
type options struct {
	cores, scale                            int
	seed                                    int64
	tech, optics, scenarios, topos          string
	only, out, svgDir, format, pprof        string
	quiet, clearCache, retryFailed, version bool
	runner                                  experiments.RunnerFlags
}

// bindFlags registers figures' flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{runner: experiments.DefaultRunnerFlags()}
	fs.IntVar(&o.cores, "cores", 64, "total cores (paper: 1024)")
	fs.IntVar(&o.scale, "scale", 1, "workload scale factor")
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")
	fs.StringVar(&o.tech, "tech", "", "electrical technology scenario for every figure: "+strings.Join(tech.Scenarios(), ", ")+" (default 11nm)")
	fs.StringVar(&o.optics, "optics", "", "optical technology scenario for every figure: "+strings.Join(photonics.Variants(), ", ")+" (default baseline)")
	fs.StringVar(&o.scenarios, "scenarios", "", `techsweep scenario list, comma-separated "tech[/optics]" pairs (default: the built-in six-point sweep)`)
	fs.StringVar(&o.topos, "topos", "", `xtopo topology list, comma-separated network names, e.g. "bcast,corona,hybrid" (default: bcast,atac+,corona,hybrid; first entry is the normalization reference)`)
	fs.StringVar(&o.only, "only", "", "comma-separated subset, e.g. 3,8,tablev,techsweep,xtopo")
	fs.StringVar(&o.out, "o", "", "also write results to this file")
	fs.StringVar(&o.svgDir, "svg", "", "also render each figure as an SVG into this directory")
	fs.StringVar(&o.format, "format", "text", "output format: text, csv, json")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-run progress")
	fs.BoolVar(&o.clearCache, "clear-cache", false, "invalidate the persistent result cache, then proceed")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&o.retryFailed, "retry-failed", false, "re-attempt runs the journal recorded as terminally failed")
	fs.BoolVar(&o.version, "version", false, "print the build version and exit")
	o.runner.Register(fs)
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(run(o))
}

func run(c *options) int {
	if c.version {
		fmt.Println(version.String())
		return 0
	}
	if c.pprof != "" {
		go func() { log.Println(http.ListenAndServe(c.pprof, nil)) }()
	}
	start := time.Now()

	f, err := report.ParseFormat(c.format)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	// Resolve the technology scenario before spending any simulation time:
	// a typo should fail here, not after the first figure's runs.
	if _, err := tech.ByName(c.tech); err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	if _, err := photonics.ByName(c.optics); err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	scens, err := experiments.ParseScenarios(c.scenarios)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	topos, err := parseTopologies(c.topos)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	o := experiments.Options{Cores: c.cores, Scale: c.scale, Seed: c.seed,
		Tech: c.tech, Optics: c.optics, Scenarios: scens, Topologies: topos}
	r, closeRunner, err := c.runner.Open(o)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeRunner()
	if c.clearCache && r.Cache != nil {
		if err := r.Cache.Invalidate(); err != nil {
			log.Printf("warning: %v", err)
		}
	}
	r.Partial = true
	r.RecallFailures = !c.retryFailed
	if !c.quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ...", s) }
	}
	_, stopSignals := r.InstallSignalHandler(c.runner.Grace, log.Printf)
	defer stopSignals()

	var w io.Writer = os.Stdout
	if c.out != "" {
		f, err := os.Create(c.out)
		if err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	for _, s := range strings.Split(strings.ToLower(c.only), ",") {
		if s = strings.TrimSpace(s); s != "" {
			want[s] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Fprintf(w, "ATAC+ evaluation campaign: %d cores, scale %d, seed %d, %s electronics, %s optics\n\n",
		o.Cores, o.Scale, o.Seed, tech.Canonical(o.Tech), photonics.Canonical(o.Optics))

	type job struct {
		id  string
		run func() (*experiments.Table, error)
	}
	jobs := []job{
		{"3", func() (*experiments.Table, error) { return experiments.Fig3(o, nil), nil }},
		{"4", r.Fig4},
		{"5", r.Fig5},
		{"6", r.Fig6},
		{"7", r.Fig7},
		{"8", func() (*experiments.Table, error) { t, _, _, err := r.Fig8(); return t, err }},
		{"9", r.Fig9},
		{"10", func() (*experiments.Table, error) { return experiments.Fig10(o) }},
		{"11", r.Fig11},
		{"12", r.Fig12},
		{"13", r.Fig13},
		{"14", r.Fig14},
		{"15", r.Fig15},
		{"16", r.Fig16},
		{"17", r.Fig17},
		{"tablev", r.TableV},
		{"techsweep", r.TechSweep},
		{"xtopo", r.Xtopo},
		{"ablations", r.Ablations},
		{"faults", func() (*experiments.Table, error) { return r.FaultSweep("radix") }},
	}
	// Declare the whole campaign's run-set up front so the worker pool is
	// saturated from the start, instead of discovering runs one figure at
	// a time. The serial loop below then renders from warm memo entries.
	var selected []string
	for _, j := range jobs {
		if sel(j.id) {
			selected = append(selected, j.id)
		}
	}
	r.Prefetch(r.CampaignRuns(selected))

	figureFailed := false
	for _, j := range jobs {
		if !sel(j.id) {
			continue
		}
		t, err := j.run()
		if err != nil {
			// Partial mode absorbs per-run failures into annotated cells;
			// an error here means the whole figure is unrenderable. Skip it
			// and keep going — the other figures are still worth emitting.
			log.Printf("figure %s: %v", j.id, err)
			figureFailed = true
			continue
		}
		if err := report.Write(w, t, f); err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		if c.svgDir != "" {
			if err := writeSVG(c.svgDir, j.id, t); err != nil {
				log.Print(err)
				return experiments.ExitFatal
			}
		}
	}
	if !c.quiet {
		fmt.Fprintf(os.Stderr, "campaign: %d simulations run, %d recalled from cache, %d failures recalled from journal\n",
			r.FreshRuns(), r.CacheHits(), r.RecalledFailures())
	}
	// Provenance manifest next to the figure outputs: what was run, from
	// which revision, how much came from the cache, and — for degraded
	// campaigns — the full failure/retry ledger.
	if dir := manifestDir(c.svgDir, c.out); dir != "" {
		p := r.Provenance(selected, time.Since(start))
		path := filepath.Join(dir, "manifest.json")
		if err := experiments.WriteManifest(path, p); err != nil {
			log.Printf("warning: manifest: %v", err)
		} else if !c.quiet {
			fmt.Fprintln(os.Stderr, "provenance ->", path)
		}
	}

	code := r.ExitCode()
	if code == experiments.ExitOK && figureFailed {
		code = experiments.ExitDegraded
	}
	switch code {
	case experiments.ExitInterrupted:
		log.Printf("campaign interrupted; re-run the same command to resume from the journal")
	case experiments.ExitDegraded:
		log.Printf("campaign degraded: %d run(s) failed (see manifest failure ledger; -retry-failed re-attempts them)",
			len(r.FailedRuns()))
	}
	return code
}

// parseTopologies parses the -topos list through the shared network-name
// resolver, so the xtopo figure accepts exactly the spellings atacsim
// does. An empty string yields nil (the built-in four-topology set).
func parseTopologies(s string) ([]config.NetworkKind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []config.NetworkKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := experiments.ParseNetworkKind(part)
		if err != nil {
			return nil, fmt.Errorf("-topos: %v", err)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-topos %q names no topologies", s)
	}
	return out, nil
}

// manifestDir picks where the provenance manifest lives: beside the SVG
// outputs when rendered, else beside the -o results file. A stdout-only
// campaign leaves no files, so it gets no manifest either.
func manifestDir(svgDir, out string) string {
	if svgDir != "" {
		return svgDir
	}
	if out != "" {
		return filepath.Dir(out)
	}
	return ""
}

// writeSVG renders a figure table as an SVG and writes fig<id>.svg:
// Fig 3 (latency vs load) becomes a log-y line chart, everything else a
// grouped bar chart.
func writeSVG(dir, id string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parse := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return v, err == nil
	}
	path := filepath.Join(dir, "fig"+id+".svg")
	if id == "3" {
		l := &plot.Line{Title: t.Title, XLabel: t.Columns[0], YLabel: "latency (cycles)", LogY: true}
		for ci := 1; ci < len(t.Columns); ci++ {
			s := plot.Series{Name: t.Columns[ci]}
			for _, row := range t.Rows {
				x, okX := parse(row[0])
				y, okY := parse(row[ci])
				if okX && okY {
					s.X = append(s.X, x)
					s.Y = append(s.Y, y)
				}
			}
			l.Series = append(l.Series, s)
		}
		return os.WriteFile(path, []byte(l.RenderLine()), 0o644)
	}
	bar := plot.FromTable(t.Title, t.Columns[0], t.Columns, t.Rows, parse)
	return os.WriteFile(path, []byte(bar.RenderBar()), 0o644)
}
