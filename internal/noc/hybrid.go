package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Hybrid is a MorphoNoC-style configurable electrical/photonic fabric: a
// full electrical multicast mesh overlaid with photonic express links
// between gateway clusters at the granularity set by config.Hybrid.Radius
// (every Radius×Radius block of clusters shares one gateway). Each gateway
// owns a dedicated SWMR wavelength set — like an ATAC hub, there is no
// optical arbitration; a select link leads the data by SelectDataLag.
//
//   - broadcasts and short unicasts (Manhattan distance below RThres) ride
//     the electrical mesh, which has native tree multicast;
//   - a long unicast crossing gateway groups takes three legs: mesh to the
//     source gateway, one express transmission to the destination gateway,
//     mesh to the destination core;
//   - under fault injection a gateway whose express channel degrades falls
//     back to the pure mesh for its future unicasts.
//
// Radius interpolates the fabric between full optics (radius 1: every
// cluster a gateway, ATAC-like express coverage) and the plain EMesh-BCast
// (radius = cluster-grid edge would leave one gateway; validation requires
// at least two, so the electrical end of the spectrum is the EMeshBCast
// kind itself).
type Hybrid struct {
	shell

	gws []*gateway
}

// NewHybrid builds the fabric from a validated HybridMesh config on
// kernel k.
func NewHybrid(k *sim.Kernel, cfg *config.Config) *Hybrid {
	if cfg.Network.Kind != config.HybridMesh {
		panic(fmt.Sprintf("noc: NewHybrid called for %v", cfg.Network.Kind))
	}
	h := &Hybrid{}
	// The reorder CAM is needed only under fault injection: gateway
	// degradation can flip a pair's path from express to mesh mid-run.
	// Fault-free hybrid paths are fixed per pair.
	h.init(k, cfg, true, cfg.Fault.Enabled, func(ep int, m *Message) {
		h.gws[cfg.GatewayOf(ep)].tx.enqueue(m)
	})
	h.gws = make([]*gateway, cfg.HybridGateways())
	for i := range h.gws {
		g := &gateway{h: h, idx: i, core: cfg.GatewayCore(i)}
		g.tx = sender{s: &h.shell, send: g.transmit}
		g.stage = arrivals{s: &h.shell, take: g.arrive}
		h.gws[i] = g
	}
	return h
}

// DegradedGateways lists the gateways whose express channel has been
// declared degraded (observability hook).
func (h *Hybrid) DegradedGateways() []int {
	var out []int
	for i, g := range h.gws {
		if g.health.degraded {
			out = append(out, i)
		}
	}
	return out
}

// Send implements Network.
func (h *Hybrid) Send(m *Message) {
	n, route := h.accept(m)
	if !route {
		return
	}
	if m.Dst == BroadcastDst {
		h.enet.Send(m)
		return
	}
	srcGW, dstGW := h.Cfg.GatewayOf(m.Src), h.Cfg.GatewayOf(m.Dst)
	express := srcGW != dstGW && h.Cfg.Distance(m.Src, m.Dst) >= h.Cfg.Network.RThres
	// Graceful degradation: a gateway whose express channel crossed the
	// observed-error threshold routes its unicasts over the mesh fallback.
	if express && !h.divert(&h.gws[srcGW].health, n) {
		// Mesh to the source gateway; an ejection there is told apart from
		// the final leg by destination (see shell.enetDeliver): express
		// packets only cross gateway groups, so the source gateway's core
		// is never the final destination of a wrapped message.
		h.toEndpoint(h.gws[srcGW].core, m)
	} else {
		h.enet.Send(m)
	}
}

// gateway is one photonic express endpoint: a serializing SWMR optical
// transmitter plus the staging that hands arrivals back to the mesh.
type gateway struct {
	h    *Hybrid
	idx  int
	core int

	tx sender
	// stage collects express arrivals per arrival cycle and hands them to
	// arrive in sender-gateway order, making same-cycle event order
	// irrelevant.
	stage arrivals

	// health tracks the express channel's observed errors (fault
	// injection).
	health chanHealth
}

// transmit performs one express transmission attempt of m: a select-link
// notification to the destination gateway, then the data flits on this
// gateway's wavelength set. The channel is stop-and-wait under faults —
// it stays busy, including the backoff gap, until the receiver holds a
// clean copy or the retry budget forces it through.
func (g *gateway) transmit(m *Message) {
	cfg := g.h.Cfg
	n := FlitsFor(m.Bits, cfg.Network.FlitBits)
	lag := cfg.Network.SelectDataLag
	oDelay := cfg.Network.ONetLinkDelay
	busy := sim.Time(lag + n)
	g.h.stats.SelectEvents++
	g.h.stats.ExpressPkts++
	g.h.stats.ExpressFlits += uint64(n)
	g.h.stats.ExpressLaserCycles += uint64(n)
	if m.retx > 0 {
		g.h.stats.OpticalRetxPkts++
		g.h.stats.OpticalRetxFlits += uint64(n)
	}
	failed := g.h.corrupted(&g.health, n, m.retx)
	if !failed {
		rx := g.h.gws[cfg.GatewayOf(m.Dst)]
		rx.stage.add(g.h.K.Now()+sim.Time(lag+1+oDelay), m, n, g.idx)
	}
	g.h.K.Schedule(busy, func() {
		if failed {
			m.retx++
			g.h.K.Schedule(g.h.inj.Backoff(int(m.retx)), func() { g.transmit(m) })
			return
		}
		g.tx.done()
	})
}

// arrive hands one express arrival back to the mesh: the final electrical
// leg to the destination core, or a direct delivery when the destination
// is the gateway core itself.
func (g *gateway) arrive(m *Message, n int) {
	g.h.stats.HubFlits += uint64(n)
	if m.Dst == g.core {
		g.h.deliverCore(g.core, m)
		return
	}
	g.h.sendWrapped(g.core, m.Dst, m)
}
