package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

const campaignCores = 16

// figure is one figure id of cmd/figures and the call that renders it.
type figure struct {
	id, call string
	render   func() (*experiments.Table, error)
}

// figures lists every figure cmd/figures renders, in its order.
func figures(r *experiments.Runner) []figure {
	o := r.Opt
	return []figure{
		{"3", "experiments.Fig3", func() (*experiments.Table, error) { return experiments.Fig3(o, nil), nil }},
		{"4", "Runner.Fig4", r.Fig4},
		{"5", "Runner.Fig5", r.Fig5},
		{"6", "Runner.Fig6", r.Fig6},
		{"7", "Runner.Fig7", r.Fig7},
		{"8", "Runner.Fig8", func() (*experiments.Table, error) { t, _, _, err := r.Fig8(); return t, err }},
		{"9", "Runner.Fig9", r.Fig9},
		{"10", "experiments.Fig10", func() (*experiments.Table, error) { return experiments.Fig10(o) }},
		{"11", "Runner.Fig11", r.Fig11},
		{"12", "Runner.Fig12", r.Fig12},
		{"13", "Runner.Fig13", r.Fig13},
		{"14", "Runner.Fig14", r.Fig14},
		{"15", "Runner.Fig15", r.Fig15},
		{"16", "Runner.Fig16", r.Fig16},
		{"17", "Runner.Fig17", r.Fig17},
		{"tablev", "Runner.TableV", r.TableV},
		{"techsweep", "Runner.TechSweep", r.TechSweep},
		{"xtopo", "Runner.Xtopo", r.Xtopo},
		{"ablations", "Runner.Ablations", r.Ablations},
		{"faults", "Runner.FaultSweep", func() (*experiments.Table, error) { return r.FaultSweep("radix") }},
	}
}

func figureIDs(r *experiments.Runner) []string {
	var ids []string
	for _, f := range figures(r) {
		ids = append(ids, f.id)
	}
	return ids
}

// table returns the table of figure id from a rendering of figures.
func table(ids []string, tables []*experiments.Table, id string) *experiments.Table {
	for i := range ids {
		if ids[i] == id {
			return tables[i]
		}
	}
	return nil
}

// campaign is one Runner with a cache and journal open on a directory.
type campaign struct {
	r    *experiments.Runner
	runs []experiments.RunSpec
}

// openCampaign opens the cache and journal in dir and a 16-core Runner
// over them that runs nproc simulations at a time, each serially, with
// no retries.
func openCampaign(tr *tracer, dir string, seed int64) (*campaign, error) {
	var (
		cache   *experiments.Cache
		journal *experiments.Journal
		err     error
	)
	tr.call("experiments.OpenCache", func() { cache, err = experiments.OpenCache(dir) })
	if err != nil {
		return nil, err
	}
	tr.call("experiments.OpenJournal", func() { journal, err = experiments.OpenJournal(cache.JournalPath()) })
	if err != nil {
		return nil, err
	}
	c := &campaign{}
	tr.call("experiments.NewRunner", func() {
		c.r = experiments.NewRunner(experiments.Options{Cores: campaignCores, Scale: 1, Seed: seed})
	})
	c.r.Cache, c.r.Journal = cache, journal
	c.r.Jobs, c.r.Shards = runtime.NumCPU(), 1
	tr.call("Runner.CampaignRuns", func() { c.runs = c.r.CampaignRuns(figureIDs(c.r)) })
	return c, nil
}

// run prefetches the campaign's runs through the worker pool, renders
// every figure from them and closes the journal. It returns the tables
// in figure order and the time Prefetch took.
func (c *campaign) run(tr *tracer) ([]*experiments.Table, time.Duration, error) {
	var tables []*experiments.Table
	var errs []error
	prefetch := tr.call("Runner.Prefetch", func() { c.r.Prefetch(c.runs) })
	tr.call("render", func() {
		for _, f := range figures(c.r) {
			var t *experiments.Table
			var err error
			tr.call(f.call, func() { t, err = f.render() })
			if err != nil {
				errs = append(errs, fmt.Errorf("figure %s: %w", f.id, err))
			}
			tables = append(tables, t)
		}
	})
	var err error
	tr.call("Journal.Close", func() { err = c.r.Journal.Close() })
	return tables, prefetch, errors.Join(append(errs, err)...)
}

func cfgKey(v any) string {
	data, _ := json.Marshal(v) // configs are plain data and always encode
	return string(data)
}

// buildModels makes the workload specs, machines and energy models the
// runs need, once per distinct benchmark and config, and returns the
// energy models by config.
func buildModels(tr *tracer, runs []experiments.RunSpec) (map[string]energy.Models, error) {
	models := map[string]energy.Models{}
	specs := map[string]bool{}
	var err error
	for _, rs := range runs {
		if !specs[rs.Bench] {
			specs[rs.Bench] = true
			tr.call("workload.ByName", func() { _, err = workload.ByName(rs.Bench, rs.Cfg.Cores, rs.Cfg.Seed, 1) })
			if err != nil {
				return nil, err
			}
		}
		k := cfgKey(rs.Cfg)
		if _, ok := models[k]; ok {
			continue
		}
		tr.call("system.New", func() { _, err = system.New(rs.Cfg) })
		if err != nil {
			return nil, err
		}
		var m energy.Models
		tr.call("energy.Build", func() { m, err = energy.Build(rs.Cfg) })
		if err != nil {
			return nil, err
		}
		models[k] = m
	}
	return models, nil
}

// runCampaign runs the whole figures campaign at 16 cores, each pass on
// a fresh cache directory: a cold pass that simulates every run, writes
// the cache and journal and renders every figure, then a warm pass from
// a new Runner on the same directory that recalls every run from the
// cache and renders again.
func (b *bench) runCampaign() error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(workDir, "campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	n := 0
	setup := func(tr *tracer) (c *campaign, models map[string]energy.Models, dir string, err error) {
		n++
		dir = filepath.Join(root, fmt.Sprint(n))
		d := tr.call("setup", func() {
			if c, err = openCampaign(tr, dir, b.seed); err == nil {
				models, err = buildModels(tr, c.runs)
			}
		})
		if err == nil {
			b.addSetup(d, tr, tr.last("setup"))
		}
		return c, models, dir, err
	}
	for i := 0; i < setupReps; i++ {
		c, _, dir, err := setup(b.tr)
		if err != nil {
			return err
		}
		if err := c.r.Journal.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}

	seen := repeats{}
	var firstTables []*experiments.Table
	var ids []string
	err = b.measure(func(i int, p *passStats) error {
		tr := b.spans(p)
		cold, models, dir, err := setup(tr)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ids = figureIDs(cold.r)

		var coldTables []*experiments.Table
		var coldPrefetch time.Duration
		p.wall = b.timed(p, func() {
			tr.call("cold", func() { coldTables, coldPrefetch, err = cold.run(tr) })
		})
		b.check(err)
		if i == 0 {
			firstTables = coldTables
		}

		// Each run is one operation in the cold pass, where it must be
		// simulated fresh, and one in the warm pass, where it must be
		// recalled from the cache with the simulated result's digest.
		simulated, ledger := cold.r.Results(), ledgerByKey(cold.r)
		keys := make([]string, 0, len(simulated))
		for k := range simulated {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) != len(cold.runs) {
			b.check(fmt.Errorf("campaign: %d runs declared, %d simulated", len(cold.runs), len(keys)))
		}
		var walls []float64
		var c counts
		for _, k := range keys {
			res, rec := simulated[k], ledger[k]
			err := checkRecord(rec, "sim")
			if err == nil {
				err = checkSim(k, res, nil)
			}
			if err == nil {
				err = seen.check(k, res)
			}
			if err == nil {
				var e energy.Breakdown
				tr.call("energy.Combine", func() { e = energy.Combine(models[cfgKey(res.Cfg)], res) })
				err = checkEnergy(k, e)
			}
			b.check(err)
			walls = append(walls, rec.WallMS)
			p.run += time.Duration(rec.WallMS * float64(time.Millisecond))
			c.add(res)
		}
		p.cycles = c.cycles
		c.into(p.layer)

		var warm *campaign
		var warmTables []*experiments.Table
		var warmPrefetch time.Duration
		runtime.GC()
		warmWall := b.timed(p, func() {
			tr.call("warm", func() {
				if warm, err = openCampaign(tr, dir, b.seed); err == nil {
					warmTables, warmPrefetch, err = warm.run(tr)
				}
			})
		})
		p.wall += warmWall
		b.check(err)
		if warm == nil {
			return nil
		}
		b.check(sameTables(ids, coldTables, warmTables))
		b.checkRecalled(warm, simulated, keys)

		l := p.layer
		l["system.run_s"] = p.run.Seconds()
		l["experiments.cold_prefetch_s"] = coldPrefetch.Seconds()
		l["experiments.warm_s"] = warmWall.Seconds()
		l["experiments.warm_prefetch_s"] = warmPrefetch.Seconds()
		l["experiments.run_p50_ms"] = quantile(walls, 0.5)
		l["experiments.run_p95_ms"] = quantile(walls, 0.95)
		l["experiments.run_samples"] = float64(len(walls))
		l["experiments.pool_busy_frac"] = p.run.Seconds() / (float64(cold.r.Jobs) * coldPrefetch.Seconds())
		l["experiments.cold_fresh_runs"] = float64(cold.r.FreshRuns())
		l["experiments.cold_cache_hits"] = float64(cold.r.CacheHits())
		l["experiments.warm_fresh_runs"] = float64(warm.r.FreshRuns())
		l["experiments.warm_cache_hits"] = float64(warm.r.CacheHits())
		if tr != nil {
			l["energy.combine_us"] = us(tr.selfByName(tr.last("pass"))["energy.Combine"])
			fig3 := tr.selfByName(tr.last("warm"))["experiments.Fig3"]
			l["experiments.fig3_s"] = fig3.Seconds()
			l["experiments.render_s"] = (tr.duration(tr.last("render")) - fig3).Seconds()
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.check(b.golden(ids, firstTables))
	return nil
}

// golden checks the golden rows. The golden files hold a seed-42
// campaign, so at any other seed a seed-42 campaign over the golden
// benchmarks is simulated for the check, outside the measured passes.
func (b *bench) golden(ids []string, tables []*experiments.Table) error {
	if b.seed == goldenSeed {
		return checkGolden(goldenDir, table(ids, tables, "4"), table(ids, tables, "8"), table(ids, tables, "xtopo"))
	}
	r := experiments.NewRunner(experiments.Options{Cores: campaignCores, Scale: 1, Seed: goldenSeed})
	r.Apps = goldenBenches
	r.Jobs, r.Shards = runtime.NumCPU(), 1
	r.Prefetch(r.CampaignRuns([]string{"4", "8", "xtopo"}))
	fig4, err4 := r.Fig4()
	fig8, _, _, err8 := r.Fig8()
	xtopo, errx := r.Xtopo()
	if err := errors.Join(err4, err8, errx); err != nil {
		return err
	}
	return checkGolden(goldenDir, fig4, fig8, xtopo)
}

func ledgerByKey(r *experiments.Runner) map[string]experiments.RunRecord {
	out := map[string]experiments.RunRecord{}
	for _, rec := range r.Ledger() {
		out[rec.Key] = rec
	}
	return out
}

// checkRecalled counts one operation per run of the warm campaign w:
// each must come from the cache with the digest of its simulated result.
func (b *bench) checkRecalled(w *campaign, simulated map[string]system.Result, keys []string) {
	recalled, ledger := w.r.Results(), ledgerByKey(w.r)
	if len(recalled) != len(keys) {
		b.check(fmt.Errorf("campaign: %d runs simulated, %d recalled", len(keys), len(recalled)))
	}
	for _, k := range keys {
		err := checkRecord(ledger[k], "cache")
		if err == nil {
			err = sameDigest(k, simulated[k], recalled[k])
		}
		b.check(err)
	}
}

// checkRecord rejects a run that did not complete from the expected
// source: "sim" in the cold pass, "cache" in the warm pass.
func checkRecord(rec experiments.RunRecord, source string) error {
	if rec.Status != experiments.StatusDone || rec.Source != source {
		return fmt.Errorf("run %s (%s): status %q from %q, want done from %q: %s",
			rec.Key, rec.Config, rec.Status, rec.Source, source, rec.Error)
	}
	return nil
}

// sameDigest rejects a recalled result whose encoding differs from the
// simulated one.
func sameDigest(name string, a, b system.Result) error {
	da, err := digest(a)
	if err != nil {
		return err
	}
	db, err := digest(b)
	if err != nil {
		return err
	}
	if da != db {
		return fmt.Errorf("%s: recalled digest %.12s differs from the simulated %.12s", name, db, da)
	}
	return nil
}
