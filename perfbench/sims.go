package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

// simCase is one application run on one network.
type simCase struct {
	net, bench string
}

// The electrical router does most of the work on these runs: on radix,
// noc is 83% of host CPU and the Go runtime 5%.
var meshPure256 = []simCase{{"pure", "radix"}, {"pure", "dynamic_graph"}}

// These runs have the most instructions per flit of the ATAC+ set, so
// the core handshake, coherence and the optical broadcast path carry a
// real share: the runtime is 31-37% of host CPU and noc 41-54%.
var atacPlus256Sync = []simCase{{"atac+", "fmm"}, {"atac+", "ocean_contig"}, {"atac+", "ocean_non_contig"}}

const simCores = 256

// builtSim is one simulation, set up and ready to run.
type builtSim struct {
	name   string
	spec   workload.Spec
	sys    *system.System
	models energy.Models
}

func buildSim(tr *tracer, c simCase, seed int64) (builtSim, error) {
	s := builtSim{name: c.bench + "@" + c.net}
	var cfg config.Config
	var err error
	tr.call("experiments.BuildConfig", func() {
		cfg, err = experiments.BuildConfig(experiments.Geometry{Net: c.net, Cores: simCores, Seed: seed})
	})
	if err != nil {
		return s, err
	}
	tr.call("workload.ByName", func() { s.spec, err = workload.ByName(c.bench, cfg.Cores, cfg.Seed, 1) })
	if err != nil {
		return s, err
	}
	tr.call("system.New", func() { s.sys, err = system.New(cfg) })
	if err != nil {
		return s, err
	}
	tr.call("energy.Build", func() { s.models, err = energy.Build(cfg) })
	return s, err
}

// counts accumulates the simulated statistics of a set of runs. They
// repeat exactly for a seed, whatever the host does.
type counts struct {
	cycles, instructions             uint64
	injected, routerFlits, onetFlits uint64
	latSum, latCount                 uint64
	l1dMisses, l2Misses, invB, invU  uint64
}

func (c *counts) add(r system.Result) {
	c.cycles += uint64(r.Cycles)
	c.instructions += r.Instructions
	c.injected += r.Net.InjectedFlits
	c.routerFlits += r.Net.MeshRouterFlits
	c.onetFlits += r.Net.ONetUniFlits + r.Net.ONetBcastFlits
	c.latSum += r.Net.LatencySum
	c.latCount += r.Net.LatencyCount
	c.l1dMisses += r.Coh.L1DMisses
	c.l2Misses += r.Coh.L2Misses
	c.invB += r.Coh.InvBroadcasts
	c.invU += r.Coh.InvUnicasts
}

func (c *counts) into(layer map[string]float64) {
	layer["system.sim_cycles"] = float64(c.cycles)
	layer["cpu.instructions"] = float64(c.instructions)
	layer["noc.injected_flits"] = float64(c.injected)
	layer["noc.mesh_router_flits"] = float64(c.routerFlits)
	layer["noc.onet_flits"] = float64(c.onetFlits)
	if c.latCount > 0 {
		layer["noc.avg_latency_cycles"] = float64(c.latSum) / float64(c.latCount)
	}
	layer["coherence.l1d_misses"] = float64(c.l1dMisses)
	layer["coherence.l2_misses"] = float64(c.l2Misses)
	layer["coherence.inv_bcasts"] = float64(c.invB)
	layer["coherence.inv_unicasts"] = float64(c.invU)
}

// checkEnergy rejects an energy breakdown that is not a positive number.
func checkEnergy(name string, e energy.Breakdown) error {
	if t := e.Total(); !(t > 0) || math.IsInf(t, 0) {
		return fmt.Errorf("%s: energy total %v J", name, t)
	}
	return nil
}

// runSims runs the cases one at a time, each on a machine built just
// before it runs, for the whole run. A pass's timed work is System.Run
// and energy.Combine of every case; its set-up builds the configs,
// workload specs, machines and energy models.
func (b *bench) runSims(cases []simCase) error {
	for i := 0; i < setupReps; i++ {
		var err error
		d := b.tr.call("setup", func() {
			for _, c := range cases {
				if _, err = buildSim(b.tr, c, b.seed); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		b.addSetup(d, b.tr, b.tr.last("setup"))
		runtime.GC()
	}
	seen := repeats{}
	return b.measure(func(i int, p *passStats) error {
		tr := b.spans(p)
		var setup time.Duration
		var c counts
		for _, sc := range cases {
			var s builtSim
			var err error
			setup += tr.call("setup", func() { s, err = buildSim(tr, sc, b.seed) })
			if err != nil {
				return err
			}
			var res system.Result
			var e energy.Breakdown
			runtime.GC() // the previous run's garbage is not this run's cost
			p.wall += b.timed(p, func() {
				p.run += tr.call("system.Run", func() { res, err = s.sys.Run(s.spec, 0) })
				tr.call("energy.Combine", func() { e = energy.Combine(s.models, res) })
			})
			err = checkSim(s.name, res, err)
			if err == nil {
				err = seen.check(s.name, res)
			}
			if err == nil {
				err = checkEnergy(s.name, e)
			}
			b.check(err)
			c.add(res)
		}
		p.cycles = c.cycles
		c.into(p.layer)
		root := tr.last("pass")
		b.addSetup(setup, tr, root)
		p.layer["system.run_s"] = p.run.Seconds()
		if tr != nil {
			p.layer["energy.combine_us"] = us(tr.selfByName(root)["energy.Combine"])
		}
		return nil
	})
}
