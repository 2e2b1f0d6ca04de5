// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V). Each FigN function regenerates the corresponding
// result as a printable table; cmd/figures, the examples, and the root
// bench harness all call into here.
//
// Simulation runs are memoized per Runner, because many figures share the
// same underlying runs (e.g. Figs 4, 5, 6, 8 and 17 all use the ATAC+
// application runs). The Runner is also a parallel campaign engine — see
// campaign.go — so each figure prefetches its declared run-set through a
// worker pool before rendering its table serially from the memo.
package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/photonics"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/tech"
)

// Benchmarks lists the evaluation applications in the paper's Fig 4 order.
var Benchmarks = []string{
	"dynamic_graph", "radix", "barnes", "fmm",
	"ocean_contig", "lu_contig", "ocean_non_contig", "lu_non_contig",
}

// Options scopes an experiment campaign.
type Options struct {
	Cores   int // total cores; the paper uses 1024
	Scale   int // per-core workload scale factor
	Seed    int64
	Horizon sim.Time // per-run cycle cap (0 = unlimited)

	// Tech and Optics name the campaign's default device-technology
	// scenario (internal/tech and internal/photonics registries); empty
	// means the paper's baseline. Every Config the campaign derives
	// carries them, so they are part of each run's identity.
	Tech   string
	Optics string

	// Scenarios, when non-empty, replaces the built-in scenario set of
	// the techsweep figure (see DefaultTechScenarios).
	Scenarios []TechScenario

	// Topologies, when non-empty, replaces the built-in topology set of
	// the xtopo figure (see DefaultTopologies). The first entry is the
	// normalization reference.
	Topologies []config.NetworkKind
}

// DefaultOptions returns the campaign scale: the paper's full 1024-core
// geometry when REPRO_FULL=1 is set, otherwise a 64-core geometry (same
// code paths, 16 clusters of 4) that keeps a full campaign tractable.
// REPRO_CORES overrides the core count explicitly.
func DefaultOptions() Options {
	o := Options{Cores: 64, Scale: 1, Seed: 42}
	if os.Getenv("REPRO_FULL") == "1" {
		o.Cores = 1024
	}
	if v := os.Getenv("REPRO_CORES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			o.Cores = n
		}
	}
	return o
}

// Config derives a validated system config for the given network kind.
func (o Options) Config(kind config.NetworkKind) config.Config {
	cfg := config.Default().WithNetwork(kind)
	cfg.Cores = o.Cores
	cfg.Seed = o.Seed
	cfg.Tech = tech.Canonical(o.Tech)
	cfg.Optics = photonics.Canonical(o.Optics)
	if o.Cores < 64 {
		cfg.ClusterDim = 2 // keep >= 4 clusters at tiny scales
	}
	cfg.Caches.DirSlices = cfg.Clusters()
	cfg.Memory.Controllers = cfg.Clusters()
	if o.Cores < 1024 {
		// Keep the distance threshold proportional to the mesh span.
		cfg.Network.RThres = cfg.MeshDim() / 2
		if cfg.Network.RThres < 2 {
			cfg.Network.RThres = 2
		}
	}
	return cfg
}

// models builds (and caches nothing: it is cheap) the energy models.
func models(cfg config.Config) (energy.Models, error) { return energy.Build(cfg) }

// Table is a printable result grid. Degraded marks a table rendered in
// partial mode with one or more cells missing (annotated in Notes).
type Table struct {
	Title    string
	Columns  []string
	Rows     [][]string
	Notes    []string
	Degraded bool
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// ---------------------------------------------------------------------
// Fig 3: latency vs offered load for the unicast routing schemes,
// uniform-random traffic with 0.1% broadcasts (network-only experiment).
// ---------------------------------------------------------------------

// RoutingScheme is one Fig 3 series.
type RoutingScheme struct {
	Name    string
	Routing config.RoutingPolicy
	RThres  int
}

// Fig3Schemes returns the paper's series: Cluster, Distance-{5,15,25,35},
// Distance-All. Thresholds are scaled to the configured mesh span.
func Fig3Schemes(meshDim int) []RoutingScheme {
	scaled := func(h int) int {
		t := h * meshDim / 32 // the paper's thresholds assume a 32x32 mesh
		if t < 1 {
			t = 1
		}
		return t
	}
	return []RoutingScheme{
		{"Cluster", config.ClusterRouting, 0},
		{fmt.Sprintf("Distance-%d", scaled(5)), config.DistanceRouting, scaled(5)},
		{fmt.Sprintf("Distance-%d", scaled(15)), config.DistanceRouting, scaled(15)},
		{fmt.Sprintf("Distance-%d", scaled(25)), config.DistanceRouting, scaled(25)},
		{fmt.Sprintf("Distance-%d", scaled(35)), config.DistanceRouting, scaled(35)},
		{"Distance-All", config.ENetOnlyRouting, 0},
	}
}

// Fig3 regenerates the latency-vs-load curves. It simulates each point
// directly, with no Runner, cache or journal; `sweep -param load` runs
// the same points through the cached Runner.
func Fig3(o Options, loads []float64) *Table {
	if len(loads) == 0 {
		loads = []float64{0.01, 0.02, 0.04, 0.08, 0.12, 0.16}
	}
	cfg := o.Config(config.ATACPlus)
	schemes := Fig3Schemes(cfg.MeshDim())
	t := &Table{
		Title:   "Fig 3: Latency vs Offered Load (uniform random, 0.1% broadcasts)",
		Columns: append([]string{"load (flits/cyc/core)"}, schemeNames(schemes)...),
		Notes: []string{
			"Cluster wins at low load (ONet zero-load latency); larger rthres wins as load rises",
		},
	}
	for _, load := range loads {
		row := []string{f3(load)}
		sp := Fig3Spec("uniform", load)
		for _, sch := range schemes {
			res, err := runSynthetic(o.SchemeConfig(sch), sp.Bench(), sp)
			if err != nil {
				row = append(row, "—")
				t.Notes = append(t.Notes, fmt.Sprintf("load %s %s: %v", f3(load), sch.Name, err))
				continue
			}
			row = append(row, f2(res.Synth.MeanLat))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func schemeNames(s []RoutingScheme) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i].Name
	}
	return out
}

// ---------------------------------------------------------------------
// Figs 4, 5, 6 + Table V: application runs on the three architectures.
// ---------------------------------------------------------------------

// Fig4 regenerates the application runtime comparison.
func (r *Runner) Fig4() (*Table, error) {
	r.Prefetch(r.FigureRuns("4"))
	t := &Table{
		Title:   "Fig 4: Application runtime (cycles)",
		Columns: []string{"benchmark", "ATAC+", "EMesh-BCast", "EMesh-Pure", "BCast/ATAC+", "Pure/ATAC+"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			ra, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			rb, err := r.Run(r.Opt.Config(config.EMeshBCast), b)
			if err != nil {
				return nil, err
			}
			rp, err := r.Run(r.Opt.Config(config.EMeshPure), b)
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprint(ra.Cycles), fmt.Sprint(rb.Cycles), fmt.Sprint(rp.Cycles),
				f2(float64(rb.Cycles) / float64(ra.Cycles)),
				f2(float64(rp.Cycles) / float64(ra.Cycles)),
			}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig5 regenerates the unicast/broadcast traffic mix (receiver-measured).
func (r *Runner) Fig5() (*Table, error) {
	r.Prefetch(r.FigureRuns("5"))
	t := &Table{
		Title:   "Fig 5: Traffic mix at the receiver (%)",
		Columns: []string{"benchmark", "unicast %", "broadcast %"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			res, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			bf := res.BroadcastRecvFraction()
			return []string{f2((1 - bf) * 100), f2(bf * 100)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig6 regenerates the offered network load per application.
func (r *Runner) Fig6() (*Table, error) {
	r.Prefetch(r.FigureRuns("6"))
	t := &Table{
		Title:   "Fig 6: Offered network load (flits/cycle/core)",
		Columns: []string{"benchmark", "load"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			res, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			return []string{fmt.Sprintf("%.4f", res.OfferedLoad())}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TableV regenerates the adaptive SWMR link utilization statistics.
func (r *Runner) TableV() (*Table, error) {
	r.Prefetch(r.FigureRuns("tablev"))
	t := &Table{
		Title:   "Table V: Adaptive SWMR link utilization; unicasts between broadcasts",
		Columns: []string{"benchmark", "link utilization %", "unicasts/broadcast"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			res, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			return []string{f2(res.LinkUtilization * 100), f2(res.UnicastsPerBcast)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 7: uncore energy breakdown of the ATAC+ flavors and mesh baselines,
// averaged across all benchmarks, normalized to ATAC+(Ideal).
// ---------------------------------------------------------------------

// Fig7 regenerates the energy breakdown comparison.
func (r *Runner) Fig7() (*Table, error) {
	r.Prefetch(r.FigureRuns("7"))
	flavors := []config.Flavor{config.FlavorIdeal, config.FlavorDefault, config.FlavorRingTuned, config.FlavorCons}
	type agg struct{ laser, tuning, other, elec, caches, total float64 }
	sums := make([]agg, len(flavors)+2)
	names := []string{"ATAC+(Ideal)", "ATAC+", "ATAC+(RingTuned)", "ATAC+(Cons)", "EMesh-BCast", "EMesh-Pure"}
	t := &Table{
		Title:   "Fig 7: Uncore energy breakdown, benchmark average [normalized to ATAC+(Ideal)]",
		Columns: []string{"config", "laser", "ring tuning", "mod/rx/select", "electrical", "caches", "total"},
		Notes:   []string{"laser dominates ATAC+(Cons); ring tuning dominates RingTuned; ATAC+ ~= Ideal"},
	}

	contributed := 0
	for _, b := range r.apps() {
		// Gather every run this benchmark contributes before touching the
		// sums, so a failed run excludes the whole benchmark cleanly
		// instead of leaving it half-accumulated.
		resA, err := r.Run(r.Opt.Config(config.ATACPlus), b)
		if err != nil {
			if r.skip(t, "benchmark "+b, err) {
				continue
			}
			return nil, err
		}
		resMesh := make([]system.Result, 2)
		meshOK := true
		for j, kind := range []config.NetworkKind{config.EMeshBCast, config.EMeshPure} {
			res, err := r.Run(r.Opt.Config(kind), b)
			if err != nil {
				if r.skip(t, "benchmark "+b, err) {
					meshOK = false
					break
				}
				return nil, err
			}
			resMesh[j] = res
		}
		if !meshOK {
			continue
		}
		contributed++
		for i, fl := range flavors {
			cfg := r.Opt.Config(config.ATACPlus)
			cfg.Network.Flavor = fl
			m, err := models(cfg)
			if err != nil {
				return nil, err
			}
			bd := energy.Combine(m, resA)
			sums[i].laser += bd.Laser
			sums[i].tuning += bd.RingTuning
			sums[i].other += bd.ONetOther
			sums[i].elec += bd.NetElecDyn + bd.NetElecStatic
			sums[i].caches += bd.Caches()
			sums[i].total += bd.UncoreTotal()
		}
		for j, kind := range []config.NetworkKind{config.EMeshBCast, config.EMeshPure} {
			m, err := models(r.Opt.Config(kind))
			if err != nil {
				return nil, err
			}
			bd := energy.Combine(m, resMesh[j])
			i := len(flavors) + j
			sums[i].elec += bd.NetElecDyn + bd.NetElecStatic
			sums[i].caches += bd.Caches()
			sums[i].total += bd.UncoreTotal()
		}
	}
	if contributed == 0 {
		return nil, fmt.Errorf("fig 7: every benchmark failed")
	}

	norm := sums[0].total
	for i, n := range names {
		s := sums[i]
		t.Rows = append(t.Rows, []string{
			n, f3(s.laser / norm), f3(s.tuning / norm), f3(s.other / norm),
			f3(s.elec / norm), f3(s.caches / norm), f3(s.total / norm),
		})
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 8: normalized energy-delay product per benchmark (headline result).
// ---------------------------------------------------------------------

// Fig8 regenerates the per-benchmark E-D product table and returns the
// average EMesh-BCast/ATAC+ and EMesh-Pure/ATAC+ ratios (the paper reports
// 1.8x and 4.8x).
func (r *Runner) Fig8() (*Table, float64, float64, error) {
	r.Prefetch(r.FigureRuns("8"))
	t := &Table{
		Title:   "Fig 8: Energy-delay product normalized to ATAC+(Ideal), ACKwise4",
		Columns: []string{"benchmark", "ATAC+(Ideal)", "ATAC+", "ATAC+(RingTuned)", "ATAC+(Cons)", "EMesh-BCast", "EMesh-Pure"},
	}
	var sumB, sumP float64
	completed := 0
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			resA, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			edp := func(fl config.Flavor) (float64, error) {
				cfg := r.Opt.Config(config.ATACPlus)
				cfg.Network.Flavor = fl
				m, err := models(cfg)
				if err != nil {
					return 0, err
				}
				return energy.EDP(m, resA), nil
			}
			ideal, err := edp(config.FlavorIdeal)
			if err != nil {
				return nil, err
			}
			def, err := edp(config.FlavorDefault)
			if err != nil {
				return nil, err
			}
			tuned, err := edp(config.FlavorRingTuned)
			if err != nil {
				return nil, err
			}
			cons, err := edp(config.FlavorCons)
			if err != nil {
				return nil, err
			}

			meshEDP := func(kind config.NetworkKind) (float64, error) {
				res, err := r.Run(r.Opt.Config(kind), b)
				if err != nil {
					return 0, err
				}
				m, err := models(r.Opt.Config(kind))
				if err != nil {
					return 0, err
				}
				return energy.EDP(m, res), nil
			}
			bc, err := meshEDP(config.EMeshBCast)
			if err != nil {
				return nil, err
			}
			pu, err := meshEDP(config.EMeshPure)
			if err != nil {
				return nil, err
			}
			sumB += bc / def
			sumP += pu / def
			completed++
			return []string{
				f2(ideal / ideal), f2(def / ideal), f2(tuned / ideal),
				f2(cons / ideal), f2(bc / ideal), f2(pu / ideal),
			}, nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	if completed == 0 {
		t.Notes = append(t.Notes, "averages unavailable: every benchmark failed")
		return t, 0, 0, nil
	}
	n := float64(completed)
	avgB, avgP := sumB/n, sumP/n
	t.Notes = append(t.Notes,
		fmt.Sprintf("average E-D vs ATAC+: EMesh-BCast %.2fx, EMesh-Pure %.2fx (paper: 1.8x, 4.8x)", avgB, avgP))
	return t, avgB, avgP, nil
}

// ---------------------------------------------------------------------
// Fig 9: sensitivity to total waveguide loss (0.2 - 4 dB), normalized to
// the EMesh-BCast energy.
// ---------------------------------------------------------------------

// Fig9 regenerates the waveguide loss sweep.
func (r *Runner) Fig9() (*Table, error) {
	r.Prefetch(r.FigureRuns("9"))
	losses := []float64{0.2, 0.5, 1, 2, 3, 4}
	t := &Table{
		Title:   "Fig 9: Uncore energy vs waveguide loss [normalized to EMesh-BCast]",
		Columns: append([]string{"benchmark"}, lossNames(losses)...),
		Notes:   []string{"ATAC+ tolerates ~2 dB before losing to EMesh-BCast (paper)"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			resA, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			resM, err := r.Run(r.Opt.Config(config.EMeshBCast), b)
			if err != nil {
				return nil, err
			}
			mm, err := models(r.Opt.Config(config.EMeshBCast))
			if err != nil {
				return nil, err
			}
			base := energy.Combine(mm, resM).UncoreTotal()
			var cells []string
			for _, loss := range losses {
				cfg := r.Opt.Config(config.ATACPlus)
				tp, pp, err := energy.Scenario(cfg)
				if err != nil {
					return nil, err
				}
				pp.TotalWaveguideLossDB = loss
				m, err := energy.BuildWith(cfg, tp, pp)
				if err != nil {
					return nil, err
				}
				cells = append(cells, f3(energy.Combine(m, resA).UncoreTotal()/base))
			}
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func lossNames(losses []float64) []string {
	out := make([]string, len(losses))
	for i, l := range losses {
		out[i] = fmt.Sprintf("%.1f dB", l)
	}
	return out
}

// ---------------------------------------------------------------------
// Fig 10: chip area.
// ---------------------------------------------------------------------

// Fig10 regenerates the area comparison (model-only; no simulation).
func Fig10(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 10: Chip area (mm²)",
		Columns: []string{"component", "ATAC+", "EMesh-BCast"},
		Notes:   []string{"caches dominate (~90%); photonics ~40 mm² at 64-bit flits"},
	}
	ma, err := models(o.Config(config.ATACPlus))
	if err != nil {
		return nil, err
	}
	mm, err := models(o.Config(config.EMeshBCast))
	if err != nil {
		return nil, err
	}
	aa, am := energy.ComputeArea(ma), energy.ComputeArea(mm)
	rows := []struct {
		name string
		a, m float64
	}{
		{"L1-I caches", aa.L1I, am.L1I},
		{"L1-D caches", aa.L1D, am.L1D},
		{"L2 caches", aa.L2, am.L2},
		{"directory", aa.Dir, am.Dir},
		{"routers", aa.Routers, am.Routers},
		{"links", aa.Links, am.Links},
		{"hubs+receive nets", aa.Hubs + aa.ReceiveNets, 0},
		{"photonics", aa.Photonics, 0},
		{"core logic", aa.CoreLogic, am.CoreLogic},
		{"total", aa.Total(), am.Total()},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.name, f2(row.a), f2(row.m)})
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 11: runtime vs flit width.
// ---------------------------------------------------------------------

// Fig11 regenerates the flit-width sensitivity study.
func (r *Runner) Fig11() (*Table, error) {
	r.Prefetch(r.FigureRuns("11"))
	widths := []int{16, 32, 64, 128, 256}
	t := &Table{
		Title:   "Fig 11: ATAC+ runtime vs flit width [normalized to 64-bit]",
		Columns: append([]string{"benchmark"}, widthNames(widths)...),
		Notes:   []string{"runtime improves steeply to 64 bits, then flattens (paper: 50% from 16->64, 10% from 64->256)"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			base, err := r.Run(r.Opt.Config(config.ATACPlus), b)
			if err != nil {
				return nil, err
			}
			var cells []string
			for _, w := range widths {
				cfg := r.Opt.Config(config.ATACPlus)
				cfg.Network.FlitBits = w
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				cells = append(cells, f3(float64(res.Cycles)/float64(base.Cycles)))
			}
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func widthNames(ws []int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("%d-bit", w)
	}
	return out
}

// ---------------------------------------------------------------------
// Fig 12: BNet vs StarNet receive networks (cluster routing).
// ---------------------------------------------------------------------

// Fig12 regenerates the receive-network energy comparison.
func (r *Runner) Fig12() (*Table, error) {
	r.Prefetch(r.FigureRuns("12"))
	t := &Table{
		Title:   "Fig 12: Uncore energy, BNet vs StarNet (cluster routing) [normalized to BNet]",
		Columns: []string{"benchmark", "BNet", "StarNet", "savings %"},
		Notes:   []string{"paper: StarNet saves ~8% on average, more for unicast-heavy apps"},
	}
	var totB, totS float64
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			cfgB := r.Opt.Config(config.ATAC) // BNet + cluster routing
			cfgS := r.Opt.Config(config.ATACPlus)
			cfgS.Network.Routing = config.ClusterRouting
			resB, err := r.Run(cfgB, b)
			if err != nil {
				return nil, err
			}
			resS, err := r.Run(cfgS, b)
			if err != nil {
				return nil, err
			}
			mB, err := models(cfgB)
			if err != nil {
				return nil, err
			}
			mS, err := models(cfgS)
			if err != nil {
				return nil, err
			}
			eB := energy.Combine(mB, resB).UncoreTotal()
			eS := energy.Combine(mS, resS).UncoreTotal()
			totB += eB
			totS += eS
			return []string{"1.000", f3(eS / eB), f2((1 - eS/eB) * 100)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if totB > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("average savings: %.1f%%", (1-totS/totB)*100))
	} else {
		t.Notes = append(t.Notes, "average savings unavailable: every benchmark failed")
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 13: E-D product of the routing protocols.
// ---------------------------------------------------------------------

// Fig13 regenerates the routing-protocol energy-delay comparison.
func (r *Runner) Fig13() (*Table, error) {
	r.Prefetch(r.FigureRuns("13"))
	cfg0 := r.Opt.Config(config.ATACPlus)
	schemes := Fig3Schemes(cfg0.MeshDim())[:5] // Cluster + Distance-{5,15,25,35}
	t := &Table{
		Title:   "Fig 13: E-D product of routing protocols [normalized to Cluster]",
		Columns: append([]string{"benchmark"}, schemeNames(schemes)...),
		Notes:   []string{"paper: Distance-15 lowest, ~10% below Cluster on average"},
	}
	sums := make([]float64, len(schemes))
	completed := 0
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			var clusterEDP float64
			var cells []string
			rowSums := make([]float64, len(schemes))
			for i, sch := range schemes {
				cfg := r.Opt.SchemeConfig(sch)
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				m, err := models(cfg)
				if err != nil {
					return nil, err
				}
				e := energy.EDP(m, res)
				if i == 0 {
					clusterEDP = e
				}
				rowSums[i] = e / clusterEDP
				cells = append(cells, f3(e/clusterEDP))
			}
			// Commit to the cross-benchmark sums only once the whole row
			// succeeded, so a degraded row cannot skew the averages.
			for i, s := range rowSums {
				sums[i] += s
			}
			completed++
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if completed > 0 {
		best, bestI := sums[0], 0
		for i, s := range sums {
			if s < best {
				best, bestI = s, i
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("best average scheme: %s (%.3f of Cluster)",
			schemes[bestI].Name, best/float64(completed)))
	} else {
		t.Notes = append(t.Notes, "best average scheme unavailable: every benchmark failed")
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 14: coherence protocols x networks.
// ---------------------------------------------------------------------

// Fig14 regenerates the ACKwise4 vs Dir4B comparison on ATAC+ and
// EMesh-BCast.
func (r *Runner) Fig14() (*Table, error) {
	r.Prefetch(r.FigureRuns("14"))
	t := &Table{
		Title:   "Fig 14: E-D product, ACKwise4 vs Dir4B [normalized to ATAC+/ACKwise4]",
		Columns: []string{"benchmark", "ATAC+ ACKwise4", "ATAC+ Dir4B", "EMesh-BCast ACKwise4", "EMesh-BCast Dir4B"},
		Notes:   []string{"Dir4B suffers on broadcast-heavy apps (1024 acks per invalidation), worse on the mesh"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			var cells []string
			var base float64
			for _, kind := range []config.NetworkKind{config.ATACPlus, config.EMeshBCast} {
				for _, ck := range []config.CoherenceKind{config.ACKwise, config.DirKB} {
					cfg := r.Opt.Config(kind)
					cfg.Coherence.Kind = ck
					res, err := r.Run(cfg, b)
					if err != nil {
						return nil, err
					}
					m, err := models(cfg)
					if err != nil {
						return nil, err
					}
					e := energy.EDP(m, res)
					if base == 0 {
						base = e
					}
					cells = append(cells, f3(e/base))
				}
			}
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Figs 15 & 16: ACKwise sharer-count sweeps.
// ---------------------------------------------------------------------

// SharerCounts are the paper's swept hardware sharer counts.
var SharerCounts = []int{4, 8, 16, 32, 1024}

// Fig15 regenerates completion time vs ACKwise sharer count.
func (r *Runner) Fig15() (*Table, error) {
	r.Prefetch(r.FigureRuns("15"))
	t := &Table{
		Title:   "Fig 15: ATAC+ completion time vs ACKwise sharers [normalized to 4]",
		Columns: append([]string{"benchmark"}, sharerNames()...),
		Notes:   []string{"paper: little runtime variation, non-monotonic"},
	}
	for _, b := range r.apps() {
		err := r.row(t, b, func() ([]string, error) {
			var base float64
			var cells []string
			for _, k := range SharerCounts {
				cfg := r.Opt.Config(config.ATACPlus)
				cfg.Coherence.Sharers = k
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				if base == 0 {
					base = float64(res.Cycles)
				}
				cells = append(cells, f3(float64(res.Cycles)/base))
			}
			return cells, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig16 regenerates the energy breakdown vs ACKwise sharer count
// (benchmark average, normalized to 4 sharers).
func (r *Runner) Fig16() (*Table, error) {
	r.Prefetch(r.FigureRuns("16"))
	t := &Table{
		Title:   "Fig 16: ATAC+ energy vs ACKwise sharers, benchmark average [normalized to 4]",
		Columns: []string{"sharers", "directory", "other caches", "network", "total"},
		Notes:   []string{"paper: ~2x total energy growth from 4 to 1024 sharers, driven by the directory"},
	}
	var base float64
	for ki, k := range SharerCounts {
		err := r.row(t, fmt.Sprint(k), func() ([]string, error) {
			var dir, caches, net, tot float64
			for _, b := range r.apps() {
				cfg := r.Opt.Config(config.ATACPlus)
				cfg.Coherence.Sharers = k
				res, err := r.Run(cfg, b)
				if err != nil {
					return nil, err
				}
				m, err := models(cfg)
				if err != nil {
					return nil, err
				}
				bd := energy.Combine(m, res)
				dir += bd.DirDyn + bd.DirStatic
				caches += bd.Caches() - bd.DirDyn - bd.DirStatic
				net += bd.Network()
				tot += bd.UncoreTotal()
			}
			if base == 0 {
				if ki > 0 {
					// The 4-sharer row (the normalization base) degraded;
					// a ratio against a different base would be misleading.
					return nil, fmt.Errorf("normalization base (%d sharers) unavailable", SharerCounts[0])
				}
				base = tot
			}
			return []string{f3(dir / base), f3(caches / base), f3(net / base), f3(tot / base)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig 17: whole-chip energy with the first-order core model.
// ---------------------------------------------------------------------

// Fig17 regenerates the chip energy breakdown for core NDD fractions of
// 10% and 40%.
func (r *Runner) Fig17() (*Table, error) {
	r.Prefetch(r.FigureRuns("17"))
	t := &Table{
		Title:   "Fig 17: Chip energy breakdown (core/cache/network), per core-NDD fraction",
		Columns: []string{"benchmark", "NDD", "net", "ATAC+ coreNDD", "coreDD", "caches", "network", "total(mJ)"},
		Notes:   []string{"cores dwarf caches and network; faster networks cut core NDD energy"},
	}
	for _, ndd := range []float64{0.10, 0.40} {
		for _, b := range r.apps() {
			for _, kind := range []config.NetworkKind{config.ATACPlus, config.EMeshBCast} {
				err := r.row(t, b, func() ([]string, error) {
					cfg := r.Opt.Config(kind)
					res, err := r.Run(cfg, b)
					if err != nil {
						return nil, err
					}
					cfg.Core.NDDFraction = ndd
					m, err := models(cfg)
					if err != nil {
						return nil, err
					}
					bd := energy.Combine(m, res)
					return []string{
						fmt.Sprintf("%.0f%%", ndd*100), kind.String(),
						f3(bd.CoreNDD * 1e3), f3(bd.CoreDD * 1e3),
						f3(bd.Caches() * 1e3), f3(bd.Network() * 1e3), f3(bd.Total() * 1e3),
					}, nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

func sharerNames() []string {
	out := make([]string, len(SharerCounts))
	for i, k := range SharerCounts {
		out[i] = fmt.Sprint(k)
	}
	return out
}
