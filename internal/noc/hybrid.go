package noc

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
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
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	gws     []*gateway
	deliver DeliverFunc
	stats   Stats

	// Per-pair FIFO restoration (reorder CAM), needed only under fault
	// injection: gateway degradation can flip a pair's path from express
	// to mesh mid-run. Fault-free hybrid paths are fixed per pair, and
	// pairs stays nil.
	pairs *pairOrder

	// outstanding counts in-flight express/delivery jobs.
	outstanding int

	inj *fault.Injector
	lat *metrics.Histogram
}

// NewHybrid builds the fabric from a validated HybridMesh config on
// kernel k.
func NewHybrid(k *sim.Kernel, cfg *config.Config) *Hybrid {
	if cfg.Network.Kind != config.HybridMesh {
		panic(fmt.Sprintf("noc: NewHybrid called for %v", cfg.Network.Kind))
	}
	h := &Hybrid{K: k, Cfg: cfg}
	n := &cfg.Network
	h.enet = NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, true)
	h.enet.Transport = true
	h.enet.SetDeliver(h.enetDeliver)
	if cfg.Fault.Enabled {
		h.pairs = newPairOrder(h.deliverNow)
	}
	h.gws = make([]*gateway, cfg.HybridGateways())
	for i := range h.gws {
		h.gws[i] = &gateway{h: h, idx: i, core: cfg.GatewayCore(i)}
	}
	return h
}

// SetDeliver implements Network.
func (h *Hybrid) SetDeliver(fn DeliverFunc) { h.deliver = fn }

// SetFaults arms fault injection: link-level retry on the mesh, and
// per-reception corruption with stop-and-wait retransmission plus
// degradation-based mesh fallback on the express channels.
func (h *Hybrid) SetFaults(inj *fault.Injector) {
	h.inj = inj
	h.enet.SetFaults(inj)
}

// SetLatencyHist attaches a per-delivery latency histogram.
func (h *Hybrid) SetLatencyHist(hist *metrics.Histogram) { h.lat = hist }

// Stats implements Network; mesh flit counters are folded in on read.
func (h *Hybrid) Stats() *Stats {
	ms := h.enet.Stats()
	s := &h.stats
	s.MeshLinkFlits = ms.MeshLinkFlits
	s.MeshRouterFlits = ms.MeshRouterFlits
	s.MeshFlitErrors = ms.MeshFlitErrors
	s.MeshNacks = ms.MeshNacks
	s.MeshRetxFlits = ms.MeshRetxFlits
	s.MeshRetriesExhausted = ms.MeshRetriesExhausted
	return s
}

// ENet exposes the underlying electrical mesh.
func (h *Hybrid) ENet() *Mesh { return h.enet }

// DegradedGateways lists the gateways whose express channel has been
// declared degraded (observability hook).
func (h *Hybrid) DegradedGateways() []int {
	var out []int
	for i, g := range h.gws {
		if g.degraded {
			out = append(out, i)
		}
	}
	return out
}

// Drained reports whether no traffic remains anywhere in the fabric.
func (h *Hybrid) Drained() bool {
	if !h.enet.Drained() {
		return false
	}
	if h.outstanding != 0 {
		return false
	}
	for _, g := range h.gws {
		if g.txBusy || len(g.txq) > 0 {
			return false
		}
	}
	return true
}

// Send implements Network.
func (h *Hybrid) Send(m *Message) {
	st := &h.stats
	m.Inject = h.K.Now()
	n := FlitsFor(m.Bits, h.Cfg.Network.FlitBits)
	st.InjectedFlits += uint64(n)
	if m.Dst == BroadcastDst {
		st.BroadcastSent++
		h.enet.Send(m)
		return
	}
	st.UnicastSent++
	if h.pairs != nil {
		h.pairs.stamp(m)
	}
	if m.Dst == m.Src {
		h.K.Schedule(1, func() { h.deliverCore(m.Dst, m) })
		return
	}
	srcGW, dstGW := h.Cfg.GatewayOf(m.Src), h.Cfg.GatewayOf(m.Dst)
	express := srcGW != dstGW && h.Cfg.Distance(m.Src, m.Dst) >= h.Cfg.Network.RThres
	// Graceful degradation: a gateway whose express channel crossed the
	// observed-error threshold routes its unicasts over the mesh fallback.
	if express && h.gws[srcGW].degraded {
		express = false
		st.ReroutedMsgs++
		st.ReroutedFlits += uint64(n)
	}
	if express {
		h.sendViaGateway(m)
	} else {
		h.enet.Send(m)
	}
}

// sendViaGateway routes m over the mesh to its source gateway (unless the
// source core hosts it) and enqueues it for express transmission. The
// wrapper trick mirrors the ATAC hub leg; ejection disambiguates by
// destination (see enetDeliver).
func (h *Hybrid) sendViaGateway(m *Message) {
	g := h.gws[h.Cfg.GatewayOf(m.Src)]
	if m.Src == g.core {
		h.K.Schedule(1, func() { g.enqueueTX(m) })
		return
	}
	wrap := &Message{Src: m.Src, Dst: g.core, Bits: m.Bits, Payload: m, viaHub: true, Inject: m.Inject}
	h.enet.Send(wrap)
}

// enetDeliver handles mesh ejections. A wrapper ejecting at the wrapped
// message's own destination is the final electrical leg completing; any
// other wrapper ejection is the source-gateway leg (express packets only
// cross gateway groups, so the source gateway's core is never the final
// destination of a wrapped message).
func (h *Hybrid) enetDeliver(dst int, m *Message) {
	if m.viaHub {
		orig := m.Payload.(*Message)
		if dst == orig.Dst {
			h.deliverCore(dst, orig)
			return
		}
		h.gws[h.Cfg.GatewayOf(dst)].enqueueTX(orig)
		return
	}
	h.deliverCore(dst, m)
}

// deliverCore hands m to core dst, through the reorder CAM when armed.
func (h *Hybrid) deliverCore(dst int, m *Message) {
	if h.pairs != nil && m.pairSeq != 0 {
		h.pairs.receive(dst, m)
		return
	}
	h.deliverNow(dst, m)
}

func (h *Hybrid) deliverNow(dst int, m *Message) {
	st := &h.stats
	now := h.K.Now()
	st.Delivered++
	if m.IsBroadcast() {
		st.BroadcastRecv++
	} else {
		st.UnicastRecv++
	}
	st.RecordLatency(now - m.Inject)
	st.RecordClassLatency(m.Class, now-m.Inject)
	h.lat.Observe(uint64(now - m.Inject))
	if h.deliver != nil {
		h.deliver(dst, m)
	}
}

// gateway is one photonic express endpoint: a serializing SWMR optical
// transmitter plus the staging that hands arrivals back to the mesh.
type gateway struct {
	h    *Hybrid
	idx  int
	core int

	txq    []*Message
	txBusy bool

	// rxStage collects express arrivals per arrival cycle; drainRX books
	// them in canonical (sender-gateway) order, making same-cycle event
	// order irrelevant (same rationale as the ATAC hub's staged receive).
	rxStage map[sim.Time][]gwJob

	// Express channel health (fault injection).
	winFlits, winErrs uint64
	degraded          bool
}

// gwJob is one staged express arrival.
type gwJob struct {
	srcGW int
	m     *Message
	n     int
}

func (g *gateway) enqueueTX(m *Message) {
	n := FlitsFor(m.Bits, g.h.Cfg.Network.FlitBits)
	g.h.stats.HubFlits += uint64(n)
	g.txq = append(g.txq, m)
	if !g.txBusy {
		g.startTX()
	}
}

func (g *gateway) startTX() {
	m := g.txq[0]
	g.txq = g.txq[1:]
	g.txBusy = true
	g.transmit(m)
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
	forced := g.h.inj != nil && int(m.retx) >= g.h.inj.MaxRetries()
	failed := false
	if g.h.inj != nil {
		errs := 0
		for i := 0; i < n; i++ {
			if g.h.inj.OpticalFlitError() {
				errs++
			}
		}
		g.h.stats.OpticalFlitErrors += uint64(errs)
		g.observe(n, errs)
		if errs > 0 {
			if forced {
				g.h.stats.OpticalRetriesExhausted++
			} else {
				g.h.stats.OpticalNacks++
				failed = true
			}
		}
	}
	if !failed {
		rx := g.h.gws[cfg.GatewayOf(m.Dst)]
		rx.scheduleRX(g.h.K.Now()+sim.Time(lag+1+oDelay), m, n, g.idx)
	}
	g.h.K.Schedule(busy, func() {
		if failed {
			m.retx++
			g.h.K.Schedule(g.h.inj.Backoff(int(m.retx)), func() { g.transmit(m) })
			return
		}
		g.txBusy = false
		if len(g.txq) > 0 {
			g.startTX()
		}
	})
}

// observe feeds one transmission's flit/error counts into the degradation
// window; above the threshold the gateway goes sticky-degraded and its
// future unicasts take the mesh fallback.
func (g *gateway) observe(flits, errs int) {
	inj := g.h.inj
	if g.degraded || inj.DegradeThreshold() <= 0 {
		return
	}
	g.winFlits += uint64(flits)
	g.winErrs += uint64(errs)
	if g.winFlits < uint64(inj.DegradeWindow()) {
		return
	}
	if float64(g.winErrs)/float64(g.winFlits) > inj.DegradeThreshold() {
		g.degraded = true
		g.h.stats.DegradedChannels++
	}
	g.winFlits, g.winErrs = 0, 0
}

// scheduleRX stages an express arrival for cycle 'arrive' on the receiving
// gateway.
func (g *gateway) scheduleRX(arrive sim.Time, m *Message, n int, from int) {
	g.h.outstanding++
	if g.rxStage == nil {
		g.rxStage = make(map[sim.Time][]gwJob)
	}
	jobs := g.rxStage[arrive]
	g.rxStage[arrive] = append(jobs, gwJob{from, m, n})
	if len(jobs) == 0 {
		g.h.K.At(arrive, func() { g.drainRX(arrive) })
	}
}

// drainRX hands every arrival staged for cycle 'at' back to the mesh in
// sender-gateway order: the final electrical leg to the destination core,
// or a direct delivery when the destination is the gateway core itself.
func (g *gateway) drainRX(at sim.Time) {
	jobs := g.rxStage[at]
	delete(g.rxStage, at)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].srcGW < jobs[j].srcGW })
	for _, j := range jobs {
		g.h.outstanding--
		g.h.stats.HubFlits += uint64(j.n)
		if j.m.Dst == g.core {
			g.h.deliverCore(g.core, j.m)
			continue
		}
		wrap := &Message{Src: g.core, Dst: j.m.Dst, Bits: j.m.Bits, Payload: j.m, viaHub: true, Inject: j.m.Inject}
		g.h.enet.Send(wrap)
	}
}
