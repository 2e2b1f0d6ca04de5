package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Crossbar is a Corona-style optical crossbar (Vantrease et al.): one MWSR
// serpentine waveguide "home channel" per destination cluster, written by
// every other cluster's hub and read only by the home cluster. Because a
// channel has many writers, access is arbitrated by a channel token that
// circulates the serpentine ring: a hub holds its request until the token
// reaches it, transmits, and releases the token at its own position.
//
//   - the ENet electrical mesh (transport mode) carries core->hub legs and
//     intra-cluster unicasts, exactly as in the ATAC fabric;
//   - each inter-cluster packet is one optical transfer on the destination
//     cluster's home channel; there is no broadcast medium, so a broadcast
//     becomes one home-channel packet per remote cluster (the source
//     cluster's copy takes the local receive network directly);
//   - ejection at the home hub uses the same receive-network model
//     (StarNet demux) as the ATAC hub.
//
// Token handling is flit-accurate: TokenWaitCycles accumulates, per
// packet, the cycles between the channel request and the first data flit
// on the waveguide (queueing behind other writers plus the token's
// serpentine travel), and every granted token is counted returned once the
// transfer — including any fault-injected retransmissions — completes.
type Crossbar struct {
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	hubs    []*xhub
	chans   []*xchan
	deliver DeliverFunc
	st      Stats

	// outstanding counts in-flight optical/receive-net jobs (Drained).
	outstanding int

	inj *fault.Injector    // nil = perfect interconnect
	lat *metrics.Histogram // nil = latency histogram disabled
}

// NewCrossbar builds the fabric from a validated Corona config on a single
// kernel.
func NewCrossbar(k *sim.Kernel, cfg *config.Config) *Crossbar {
	if cfg.Network.Kind != config.Corona {
		panic(fmt.Sprintf("noc: NewCrossbar called for %v", cfg.Network.Kind))
	}
	x := &Crossbar{K: k, Cfg: cfg}
	n := &cfg.Network
	x.enet = NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, false)
	x.enet.Transport = true
	x.enet.SetDeliver(x.enetDeliver)
	x.hubs = make([]*xhub, cfg.Clusters())
	x.chans = make([]*xchan, cfg.Clusters())
	for i := range x.hubs {
		h := &xhub{x: x, cluster: i}
		h.rxFree = make([]sim.Time, n.StarNetsPerCl)
		x.hubs[i] = h
		// The home channel's token starts parked at its home hub.
		x.chans[i] = &xchan{x: x, home: i, tokenAt: i}
	}
	return x
}

// SetDeliver implements Network.
func (x *Crossbar) SetDeliver(fn DeliverFunc) { x.deliver = fn }

// SetFaults arms fault injection: link-level retry on the ENet, and
// per-reception corruption (BER plus ring drift) with stop-and-wait
// retransmission on the home channels. Corona paths are fixed — a packet's
// channel is determined by its destination — so there is no rerouting and
// no reorder CAM; the token holder simply retries until clean or forced.
func (x *Crossbar) SetFaults(inj *fault.Injector) {
	x.inj = inj
	x.enet.SetFaults(inj)
}

// SetLatencyHist attaches a per-delivery latency histogram.
func (x *Crossbar) SetLatencyHist(h *metrics.Histogram) { x.lat = h }

// Stats implements Network; ENet flit counters are folded in on read.
func (x *Crossbar) Stats() *Stats {
	ms := x.enet.Stats()
	s := &x.st
	s.MeshLinkFlits = ms.MeshLinkFlits
	s.MeshRouterFlits = ms.MeshRouterFlits
	s.MeshFlitErrors = ms.MeshFlitErrors
	s.MeshNacks = ms.MeshNacks
	s.MeshRetxFlits = ms.MeshRetxFlits
	s.MeshRetriesExhausted = ms.MeshRetriesExhausted
	return s
}

// ENet exposes the underlying electrical mesh (for area/static accounting).
func (x *Crossbar) ENet() *Mesh { return x.enet }

// Drained reports whether no traffic remains anywhere in the fabric.
func (x *Crossbar) Drained() bool {
	if !x.enet.Drained() || x.outstanding != 0 {
		return false
	}
	for _, c := range x.chans {
		if c.busy || len(c.q) > 0 {
			return false
		}
	}
	return true
}

// Send implements Network.
func (x *Crossbar) Send(m *Message) {
	m.Inject = x.K.Now()
	n := FlitsFor(m.Bits, x.Cfg.Network.FlitBits)
	x.st.InjectedFlits += uint64(n)
	if m.Dst == BroadcastDst {
		x.st.BroadcastSent++
		x.sendViaHub(m)
		return
	}
	x.st.UnicastSent++
	if m.Dst == m.Src {
		x.K.Schedule(1, func() { x.deliverCore(m.Dst, m) })
		return
	}
	if x.Cfg.ClusterOf(m.Src) == x.Cfg.ClusterOf(m.Dst) {
		x.enet.Send(m)
		return
	}
	x.sendViaHub(m)
}

// sendViaHub routes m over the ENet to its cluster hub (unless the source
// core hosts the hub), where it is split into home-channel requests.
func (x *Crossbar) sendViaHub(m *Message) {
	cl := x.Cfg.ClusterOf(m.Src)
	hubCore := x.Cfg.HubCore(cl)
	if m.Src == hubCore {
		x.K.Schedule(1, func() { x.hubs[cl].request(m) })
		return
	}
	wrap := &Message{Src: m.Src, Dst: hubCore, Bits: m.Bits, Payload: m, viaHub: true, Inject: m.Inject}
	x.enet.Send(wrap)
}

// enetDeliver handles ENet ejections: hub-bound wrappers become channel
// requests; everything else is a final core delivery.
func (x *Crossbar) enetDeliver(dst int, m *Message) {
	if m.viaHub {
		x.hubs[x.Cfg.ClusterOf(dst)].request(m.Payload.(*Message))
		return
	}
	x.deliverCore(dst, m)
}

func (x *Crossbar) deliverCore(dst int, m *Message) {
	now := x.K.Now()
	x.st.Delivered++
	if m.IsBroadcast() {
		x.st.BroadcastRecv++
	} else {
		x.st.UnicastRecv++
	}
	x.st.RecordLatency(now - m.Inject)
	x.st.RecordClassLatency(m.Class, now-m.Inject)
	x.lat.Observe(uint64(now - m.Inject))
	if x.deliver != nil {
		x.deliver(dst, m)
	}
}

// xhub is one cluster's crossbar endpoint: modulator banks on every other
// cluster's home channel (the hub can write several channels concurrently;
// serialization happens per channel, at the token) plus the receive
// networks draining its own home channel into the cluster's cores.
type xhub struct {
	x       *Crossbar
	cluster int

	// Receive-network state, identical in shape to the ATAC hub's.
	rxFree     []sim.Time
	rxLastDone sim.Time
}

// request splits a packet arriving at the source hub into home-channel
// requests: one for a unicast, one per cluster for a broadcast. The source
// cluster's own broadcast copy bypasses the optics onto the local receive
// network (the hub already holds the data).
func (h *xhub) request(m *Message) {
	n := FlitsFor(m.Bits, h.x.Cfg.Network.FlitBits)
	h.x.st.HubFlits += uint64(n)
	if m.Dst != BroadcastDst {
		h.x.chans[h.x.Cfg.ClusterOf(m.Dst)].enqueue(h.cluster, m, n)
		return
	}
	for cl := range h.x.chans {
		if cl == h.cluster {
			h.x.scheduleRX(h, h.x.K.Now()+1, m, n)
			continue
		}
		h.x.chans[cl].enqueue(h.cluster, m, n)
	}
}

// xreq is one pending home-channel transfer.
type xreq struct {
	srcCl int
	m     *Message
	n     int
	at    sim.Time // request time, for token-wait accounting
	retx  uint8    // retransmission attempts spent (fault injection)
}

// xchan is one home channel: the MWSR waveguide bundle read by cluster
// 'home', its arbitration token, and the FIFO of writers waiting for it.
type xchan struct {
	x       *Crossbar
	home    int
	tokenAt int // serpentine position the free token is parked at
	q       []xreq
	busy    bool
}

// enqueue registers a transfer request and starts arbitration if the
// channel is idle.
func (c *xchan) enqueue(srcCl int, m *Message, n int) {
	c.q = append(c.q, xreq{srcCl: srcCl, m: m, n: n, at: c.x.K.Now()})
	if !c.busy {
		c.busy = true
		c.grant()
	}
}

// grant hands the channel token to the request at the head of the queue.
// The token travels the serpentine ring from its parked position to the
// requester at one cycle per hub segment; transmission starts when it
// arrives, and the token is released at the writer's own position when the
// transfer completes — so the next grant's travel starts from there.
func (c *xchan) grant() {
	r := c.q[0]
	c.q = c.q[1:]
	now := c.x.K.Now()
	hubs := len(c.x.hubs)
	travel := sim.Time((r.srcCl - c.tokenAt + hubs) % hubs)
	start := now + travel
	c.x.st.TokensGranted++
	c.x.st.TokenWaitCycles += uint64(start - r.at)
	c.x.K.Schedule(travel, func() { c.transmit(r) })
}

// transmit performs one transmission attempt of r on the channel: n data
// flits toward the home hub, whose fixed-tuned drop rings are the only
// reader. Under fault injection a corrupted reception is NACKed and the
// writer — still holding the token — retries after a backoff; after the
// retry budget the transfer is forced through (end-to-end FEC). The
// channel is stop-and-wait, so home-channel order is FIFO even with
// faults.
func (c *xchan) transmit(r xreq) {
	x := c.x
	oDelay := sim.Time(x.Cfg.Network.ONetLinkDelay)
	busy := sim.Time(r.n)
	x.st.XbarPkts++
	x.st.XbarFlits += uint64(r.n)
	x.st.XbarLaserCycles += uint64(r.n)
	if r.retx > 0 {
		x.st.OpticalRetxPkts++
		x.st.OpticalRetxFlits += uint64(r.n)
	}
	forced := x.inj != nil && int(r.retx) >= x.inj.MaxRetries()
	failed := false
	if x.inj != nil {
		errs := 0
		for i := 0; i < r.n; i++ {
			if x.inj.OpticalFlitError() {
				errs++
			}
		}
		x.st.OpticalFlitErrors += uint64(errs)
		if errs > 0 {
			if forced {
				x.st.OpticalRetriesExhausted++
			} else {
				x.st.OpticalNacks++
				failed = true
			}
		}
	}
	if !failed {
		x.scheduleRX(x.hubs[c.home], x.K.Now()+1+oDelay, r.m, r.n)
	}
	x.K.Schedule(busy, func() {
		if failed {
			r.retx++
			x.K.Schedule(x.inj.Backoff(int(r.retx)), func() { c.transmit(r) })
			return
		}
		c.tokenAt = r.srcCl
		x.st.TokensReturned++
		if len(c.q) > 0 {
			c.grant()
			return
		}
		c.busy = false
	})
}

// scheduleRX books an optical arrival on hub h's receive networks at
// absolute time 'at'.
func (x *Crossbar) scheduleRX(h *xhub, at sim.Time, m *Message, n int) {
	x.outstanding++
	x.K.At(at, func() {
		x.outstanding--
		h.receive(m, n)
	})
}

// receive distributes a home-channel arrival over the receive network —
// the same earliest-free booking and in-order completion rule as the ATAC
// hub.
func (h *xhub) receive(m *Message, n int) {
	x := h.x
	cfg := x.Cfg
	x.st.HubFlits += uint64(n)

	best := 0
	for i, f := range h.rxFree {
		if f < h.rxFree[best] {
			best = i
		}
	}
	start := h.rxFree[best]
	if now := x.K.Now(); start < now {
		start = now
	}
	h.rxFree[best] = start + sim.Time(n)
	done := start + sim.Time(n) + sim.Time(cfg.Network.LinkDelay)
	if done < h.rxLastDone {
		done = h.rxLastDone
	}
	h.rxLastDone = done

	bcast := m.Dst == BroadcastDst
	if cfg.Network.ReceiveNet == config.BNet {
		x.st.BNetFlits += uint64(n)
	} else if bcast {
		x.st.StarBcastFlits += uint64(n)
	} else {
		x.st.StarUniFlits += uint64(n)
	}

	x.outstanding++
	x.K.At(done, func() {
		x.outstanding--
		if bcast {
			for _, c := range h.clusterBaseCores() {
				x.deliverCore(c, m)
			}
		} else {
			x.deliverCore(m.Dst, m)
		}
	})
}

// clusterBaseCores lists the core IDs in this hub's cluster.
func (h *xhub) clusterBaseCores() []int {
	cfg := h.x.Cfg
	dim := cfg.MeshDim()
	cw := dim / cfg.ClusterDim
	cx, cy := h.cluster%cw, h.cluster/cw
	cores := make([]int, 0, cfg.ClusterCores())
	for y := 0; y < cfg.ClusterDim; y++ {
		for x := 0; x < cfg.ClusterDim; x++ {
			cores = append(cores, (cy*cfg.ClusterDim+y)*dim+cx*cfg.ClusterDim+x)
		}
	}
	return cores
}
