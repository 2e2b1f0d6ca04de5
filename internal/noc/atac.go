package noc

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Atac is the composed ATAC/ATAC+ fabric (Section III/IV of the paper):
//
//   - an ENet: the full-chip electrical wormhole mesh (transport mode),
//     used core->hub, for intra-cluster unicasts, and for short-distance
//     unicasts under distance-based routing;
//   - one hub per cluster with an adaptive SWMR optical channel (ONet):
//     each hub owns a dedicated wavelength set, so there is no optical
//     arbitration; a select link notifies receivers one cycle before data;
//   - per-cluster receive networks (StarNet demux or BNet fan-out trees)
//     carrying data from the hub to the cores.
//
// The routing policy (cluster-based, distance-based with RThres, or
// ENet-only) decides which unicasts ride the ONet. Broadcasts always ride
// the ONet.
type Atac struct {
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	hubs    []*hub
	deliver DeliverFunc
	stats   Stats
	// pendingTX[cluster] counts messages committed to that cluster's
	// optical channel but not yet transmitted (the token counter the
	// adaptive routing policy consults).
	pendingTX []int

	// Per-pair FIFO restoration for adaptive routing: once the path of a
	// (src,dst) pair can vary per message, the coherence protocol's
	// same-pair ordering assumption must be enforced at the receiving
	// NIC (a small reorder CAM in hardware). Nil for the oblivious
	// policies, whose fixed paths are FIFO by construction.
	pairs *pairOrder

	// outstanding counts in-flight optical/receive-net jobs (test hook
	// for Drained).
	outstanding int

	inj *fault.Injector    // nil = perfect interconnect
	lat *metrics.Histogram // nil = latency histogram disabled
}

// NewAtac builds the fabric from a validated config with an optical
// network kind, on kernel k.
func NewAtac(k *sim.Kernel, cfg *config.Config) *Atac {
	if !cfg.Network.Kind.IsOptical() {
		panic(fmt.Sprintf("noc: NewAtac called for %v", cfg.Network.Kind))
	}
	a := &Atac{K: k, Cfg: cfg}
	n := &cfg.Network
	a.enet = NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, false)
	a.enet.Transport = true
	a.enet.SetDeliver(a.enetDeliver)
	a.pendingTX = make([]int, cfg.Clusters())
	// Per-pair FIFO restoration is needed whenever a pair's path can vary
	// per message: under adaptive routing, and under fault injection,
	// where channel degradation reroutes optical unicasts onto the ENet
	// mid-run (optical retransmission itself is stop-and-wait and cannot
	// reorder, but the optical->electrical switch can).
	if cfg.Network.Routing == config.AdaptiveRouting || cfg.Fault.Enabled {
		a.pairs = newPairOrder(a.deliverNow)
	}
	a.hubs = make([]*hub, cfg.Clusters())
	for i := range a.hubs {
		h := &hub{a: a, cluster: i}
		h.rxFree = make([]sim.Time, n.StarNetsPerCl)
		a.hubs[i] = h
	}
	return a
}

// SetDeliver implements Network.
func (a *Atac) SetDeliver(fn DeliverFunc) { a.deliver = fn }

// SetFaults arms fault injection on the whole fabric: link-level retry on
// the ENet, per-reception corruption with stop-and-wait retransmission on
// the optical channels, and degradation-based rerouting. Must be set
// before the first Send; nil leaves the fabric perfect.
func (a *Atac) SetFaults(inj *fault.Injector) {
	a.inj = inj
	a.enet.SetFaults(inj)
}

// Stats implements Network; ENet flit counters are folded in on read.
func (a *Atac) Stats() *Stats {
	ms := a.enet.Stats()
	s := &a.stats
	s.MeshLinkFlits = ms.MeshLinkFlits
	s.MeshRouterFlits = ms.MeshRouterFlits
	s.MeshFlitErrors = ms.MeshFlitErrors
	s.MeshNacks = ms.MeshNacks
	s.MeshRetxFlits = ms.MeshRetxFlits
	s.MeshRetriesExhausted = ms.MeshRetriesExhausted
	return s
}

// DegradedClusters lists the clusters whose optical channel has been
// declared degraded (observability hook).
func (a *Atac) DegradedClusters() []int {
	var out []int
	for i, h := range a.hubs {
		if h.degraded {
			out = append(out, i)
		}
	}
	return out
}

// ENet exposes the underlying electrical mesh (for area/static accounting).
func (a *Atac) ENet() *Mesh { return a.enet }

// SetLatencyHist attaches a per-delivery latency histogram (nil disables
// it again). The delivery path pays one nil check when unobserved.
func (a *Atac) SetLatencyHist(h *metrics.Histogram) { a.lat = h }

// BusyCycles returns the summed optical-transmitter busy cycles across
// every cluster hub — the cumulative counter behind Table V's link
// utilization, exposed so the metrics layer can sample it per epoch.
func (a *Atac) BusyCycles() uint64 {
	var busy uint64
	for _, h := range a.hubs {
		busy += h.busyCycles
	}
	return busy
}

// Drained reports whether no traffic remains anywhere in the fabric.
func (a *Atac) Drained() bool {
	if !a.enet.Drained() {
		return false
	}
	if a.outstanding != 0 {
		return false
	}
	for _, h := range a.hubs {
		if h.txBusy || len(h.txq) > 0 {
			return false
		}
	}
	return true
}

// Send implements Network.
func (a *Atac) Send(m *Message) {
	st := &a.stats
	m.Inject = a.K.Now()
	n := FlitsFor(m.Bits, a.Cfg.Network.FlitBits)
	st.InjectedFlits += uint64(n)
	if m.Dst == BroadcastDst {
		st.BroadcastSent++
		a.sendViaHub(m)
		return
	}
	st.UnicastSent++
	if a.pairs != nil {
		a.pairs.stamp(m)
	}
	if m.Dst == m.Src {
		a.K.Schedule(1, func() { a.deliverCore(m.Dst, m) })
		return
	}
	srcCl, dstCl := a.Cfg.ClusterOf(m.Src), a.Cfg.ClusterOf(m.Dst)
	useONet := false
	if srcCl != dstCl {
		switch a.Cfg.Network.Routing {
		case config.ClusterRouting:
			useONet = true
		case config.DistanceRouting:
			useONet = a.Cfg.Distance(m.Src, m.Dst) >= a.Cfg.Network.RThres
		case config.ENetOnlyRouting:
			useONet = false
		case config.AdaptiveRouting:
			// Distance-based, but divert to the ENet when the cluster's
			// optical transmitter is backed up (load-aware extension of
			// Section IV-C's analysis).
			useONet = a.Cfg.Distance(m.Src, m.Dst) >= a.Cfg.Network.RThres &&
				a.pendingTX[srcCl] < a.Cfg.Network.AdaptiveQueueMax
		}
	}
	// Graceful degradation: a cluster whose optical channel crossed the
	// observed-error threshold routes its unicasts over the electrical
	// mesh fallback. Broadcasts stay on the ONet (protected by
	// retransmission): diverting them would break the per-slice broadcast
	// FIFO the coherence protocol's sequence numbers assume.
	if useONet && a.hubs[srcCl].degraded {
		useONet = false
		st.ReroutedMsgs++
		st.ReroutedFlits += uint64(n)
	}
	if useONet {
		a.sendViaHub(m)
	} else {
		a.enet.Send(m)
	}
}

// sendViaHub routes m over the ENet to its cluster hub (unless the source
// core hosts the hub) and enqueues it for optical transmission.
func (a *Atac) sendViaHub(m *Message) {
	cl := a.Cfg.ClusterOf(m.Src)
	a.pendingTX[cl]++
	hubCore := a.Cfg.HubCore(cl)
	if m.Src == hubCore {
		a.K.Schedule(1, func() { a.hubs[cl].enqueueTX(m) })
		return
	}
	wrap := &Message{Src: m.Src, Dst: hubCore, Bits: m.Bits, Payload: m, viaHub: true, Inject: m.Inject}
	a.enet.Send(wrap)
}

// enetDeliver handles ENet ejections: hub-bound wrappers enter the hub TX
// queue; everything else is a final core delivery.
func (a *Atac) enetDeliver(dst int, m *Message) {
	if m.viaHub {
		orig := m.Payload.(*Message)
		a.hubs[a.Cfg.ClusterOf(dst)].enqueueTX(orig)
		return
	}
	a.deliverCore(dst, m)
}

// deliverCore hands m to core dst, through the reorder CAM when armed.
func (a *Atac) deliverCore(dst int, m *Message) {
	if a.pairs != nil && m.pairSeq != 0 {
		a.pairs.receive(dst, m)
		return
	}
	a.deliverNow(dst, m)
}

func (a *Atac) deliverNow(dst int, m *Message) {
	st := &a.stats
	now := a.K.Now()
	st.Delivered++
	if m.IsBroadcast() {
		st.BroadcastRecv++
	} else {
		st.UnicastRecv++
	}
	st.RecordLatency(now - m.Inject)
	st.RecordClassLatency(m.Class, now-m.Inject)
	a.lat.Observe(uint64(now - m.Inject))
	if a.deliver != nil {
		a.deliver(dst, m)
	}
}

// hub is one cluster's ONet endpoint: a serializing optical transmitter
// (the cluster's dedicated SWMR channel) plus the receive-network servers
// distributing arrivals to the cluster's cores.
type hub struct {
	a       *Atac
	cluster int

	txq    []*Message
	txBusy bool

	// rxFree[i] is the time receive network i is next available.
	rxFree []sim.Time
	// rxStage collects optical arrivals per arrival cycle; drainRX books
	// them in canonical (sender-cluster) order — see scheduleRX.
	rxStage map[sim.Time][]rxJob
	// rxLastDone enforces in-order delivery completion across the
	// parallel receive networks: the coherence protocol's sequence-number
	// scheme assumes broadcasts and unicasts each stay FIFO among
	// themselves (Section IV-C1), so two receive networks must not
	// reorder messages arriving at the same cluster.
	rxLastDone sim.Time

	// Adaptive SWMR bookkeeping (Table V).
	busyCycles   uint64
	uniSinceLast uint64

	// Optical channel health (fault injection): observed flits and
	// errors in the current degradation window, and the sticky degraded
	// flag that reroutes this cluster's unicasts onto the ENet.
	winFlits, winErrs uint64
	degraded          bool
}

func (h *hub) enqueueTX(m *Message) {
	n := FlitsFor(m.Bits, h.a.Cfg.Network.FlitBits)
	h.a.stats.HubFlits += uint64(n)
	h.txq = append(h.txq, m)
	if !h.txBusy {
		h.startTX()
	}
}

// startTX dequeues the head of the queue and launches its first optical
// transmission attempt.
func (h *hub) startTX() {
	m := h.txq[0]
	h.txq = h.txq[1:]
	h.txBusy = true
	h.transmit(m, nil)
}

// transmit performs one optical transmission attempt of m: a select-link
// notification, then the data flits on the hub's wavelength set. The laser
// runs only for the duration of the transfer (power gating; the Cons
// flavor's always-on laser is an energy-model concern, not a timing one).
//
// retxTo is nil for a first attempt (normal mode selection); for
// retransmissions it lists the clusters whose previous reception was
// corrupted, which are re-sent as serialized unicast-mode slots. The
// channel is stop-and-wait: it stays busy — including the backoff gap —
// until every receiver holds a clean copy or the retry budget forces the
// residue through, so hub transmission order (and with it the per-slice
// broadcast FIFO the coherence sequence numbers assume) survives faults.
func (h *hub) transmit(m *Message, retxTo []int) {
	cfg := h.a.Cfg
	n := FlitsFor(m.Bits, cfg.Network.FlitBits)
	lag := cfg.Network.SelectDataLag
	oDelay := cfg.Network.ONetLinkDelay
	// forced: the retry budget is spent, so residual errors are modelled
	// as recovered by end-to-end FEC and every receiver is delivered.
	forced := h.a.inj != nil && int(m.retx) >= h.a.inj.MaxRetries()
	var failed []int

	var busy sim.Time
	switch {
	case retxTo != nil:
		// Retransmission attempt: serialized unicast-mode slots to the
		// failed receivers only, each with its own select notification.
		per := sim.Time(lag + n)
		busy = per * sim.Time(len(retxTo))
		h.busyCycles += uint64(busy)
		h.a.stats.SelectEvents += uint64(len(retxTo))
		h.a.stats.ONetUniPkts += uint64(len(retxTo))
		h.a.stats.ONetUniFlits += uint64(len(retxTo) * n)
		h.a.stats.LaserUniCycles += uint64(len(retxTo) * n)
		h.a.stats.OpticalRetxPkts += uint64(len(retxTo))
		h.a.stats.OpticalRetxFlits += uint64(len(retxTo) * n)
		for i, cl := range retxTo {
			rx := h.a.hubs[cl]
			arrive := sim.Time(i)*per + sim.Time(lag+1+oDelay)
			if h.corrupted(rx, n, forced) {
				failed = append(failed, cl)
				continue
			}
			rx.scheduleRX(h.a.K.Now()+arrive, m, n, h.cluster)
		}
	case m.Dst == BroadcastDst && cfg.Network.BcastAsUnicast:
		// Section V-D ablation: no native broadcast support on the
		// SWMR link. The broadcast is serialized as one unicast-mode
		// transmission per hub, each with its own select notification;
		// receiving hubs still fan the copy out to their whole cluster.
		hubs := len(h.a.hubs)
		h.a.stats.SelectEvents += uint64(hubs)
		h.a.stats.ONetUniPkts += uint64(hubs)
		h.a.stats.ONetUniFlits += uint64(hubs * n)
		h.a.stats.LaserUniCycles += uint64(hubs * n)
		h.uniSinceLast = 0
		per := sim.Time(lag + n)
		busy = per * sim.Time(hubs)
		h.busyCycles += uint64(busy)
		for i, rx := range h.a.hubs {
			arrive := sim.Time(i)*per + sim.Time(lag+1+oDelay)
			if rx == h {
				arrive = sim.Time(i)*per + sim.Time(lag+1)
			}
			if h.corrupted(rx, n, forced) {
				failed = append(failed, rx.cluster)
				continue
			}
			rx.scheduleRX(h.a.K.Now()+arrive, m, n, h.cluster)
		}
	case m.Dst == BroadcastDst:
		h.a.stats.SelectEvents++
		h.a.stats.ONetBcastPkts++
		h.a.stats.ONetBcastFlits += uint64(n)
		h.a.stats.LaserBcastCycles += uint64(n)
		h.uniSinceLast = 0
		busy = sim.Time(lag + n)
		h.busyCycles += uint64(busy)
		// Every other hub receives via the ONet loop; the sending
		// hub forwards directly onto its own receive network.
		for _, rx := range h.a.hubs {
			arrive := sim.Time(lag + 1 + oDelay)
			if rx == h {
				arrive = sim.Time(lag + 1)
			}
			if h.corrupted(rx, n, forced) {
				failed = append(failed, rx.cluster)
				continue
			}
			rx.scheduleRX(h.a.K.Now()+arrive, m, n, h.cluster)
		}
	default:
		h.a.stats.SelectEvents++
		h.a.stats.ONetUniPkts++
		h.a.stats.ONetUniFlits += uint64(n)
		h.a.stats.LaserUniCycles += uint64(n)
		h.uniSinceLast++
		busy = sim.Time(lag + n)
		h.busyCycles += uint64(busy)
		rx := h.a.hubs[cfg.ClusterOf(m.Dst)]
		if h.corrupted(rx, n, forced) {
			failed = append(failed, rx.cluster)
		} else {
			rx.scheduleRX(h.a.K.Now()+sim.Time(lag+1+oDelay), m, n, h.cluster)
		}
	}

	h.a.K.Schedule(busy, func() {
		if len(failed) > 0 {
			// NACKed receivers remain: hold the channel through the
			// backoff and retransmit to the failed subset only.
			m.retx++
			h.a.K.Schedule(h.a.inj.Backoff(int(m.retx)), func() {
				h.transmit(m, failed)
			})
			return
		}
		h.a.pendingTX[h.cluster]--
		h.txBusy = false
		if len(h.txq) > 0 {
			h.startTX()
		}
	})
}

// corrupted draws the per-flit optical errors one receiving hub would see
// (evaluated sender-side at transmit time, modelling the receiver's CRC
// check and select-link NACK) and feeds the channel-health window. The
// sending hub's own copy bypasses the optical loop and cannot be
// corrupted; forced deliveries record errors but never fail.
func (h *hub) corrupted(rx *hub, n int, forced bool) bool {
	if h.a.inj == nil || rx == h {
		return false
	}
	errs := 0
	for i := 0; i < n; i++ {
		if h.a.inj.OpticalFlitError() {
			errs++
		}
	}
	h.a.stats.OpticalFlitErrors += uint64(errs)
	h.observe(n, errs)
	if errs == 0 {
		return false
	}
	if forced {
		h.a.stats.OpticalRetriesExhausted++
		return false
	}
	h.a.stats.OpticalNacks++
	return true
}

// observe feeds one reception's flit/error counts into the degradation
// window; when the window fills with an observed error rate above the
// threshold, the channel is declared degraded (sticky) and the cluster's
// future optical unicasts divert to the ENet.
func (h *hub) observe(flits, errs int) {
	inj := h.a.inj
	if h.degraded || inj.DegradeThreshold() <= 0 {
		return
	}
	h.winFlits += uint64(flits)
	h.winErrs += uint64(errs)
	if h.winFlits < uint64(inj.DegradeWindow()) {
		return
	}
	if float64(h.winErrs)/float64(h.winFlits) > inj.DegradeThreshold() {
		h.degraded = true
		h.a.stats.DegradedChannels++
	}
	h.winFlits, h.winErrs = 0, 0
}

// scheduleRX stages the message for receive-network booking once its head
// flit arrives at 'arrive'. Same-cycle arrivals from several sender hubs
// are collected and drained in one event in sender-cluster order: the
// greedy earliest-free receive-network assignment depends on processing
// order, and a canonical drain keeps it from depending on where sender
// events happen to sit in the cycle's bucket. Every booking strictly
// precedes its arrival cycle (arrive ≥ now+2), so the stage is always
// complete when the drain runs.
func (h *hub) scheduleRX(arrive sim.Time, m *Message, n int, from int) {
	h.a.outstanding++
	if h.rxStage == nil {
		h.rxStage = make(map[sim.Time][]rxJob)
	}
	jobs := h.rxStage[arrive]
	h.rxStage[arrive] = append(jobs, rxJob{from, m, n})
	if len(jobs) == 0 {
		h.a.K.At(arrive, func() { h.drainRX(arrive) })
	}
}

// rxJob is one staged optical arrival: the sender hub's cluster (the
// canonical drain key — a serializing sender lands at most one arrival per
// receiving hub per cycle) and the message it carries.
type rxJob struct {
	srcCl int
	m     *Message
	n     int
}

// drainRX books every arrival staged for cycle 'at' in sender-cluster
// order.
func (h *hub) drainRX(at sim.Time) {
	jobs := h.rxStage[at]
	delete(h.rxStage, at)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].srcCl < jobs[j].srcCl })
	for _, j := range jobs {
		h.a.outstanding--
		h.receive(j.m, j.n)
	}
}

// receive distributes an optical arrival over the receive network.
func (h *hub) receive(m *Message, n int) {
	cfg := h.a.Cfg
	h.a.stats.HubFlits += uint64(n)

	// Pick the earliest-free receive network (FIFO service).
	best := 0
	for i, f := range h.rxFree {
		if f < h.rxFree[best] {
			best = i
		}
	}
	start := h.rxFree[best]
	if now := h.a.K.Now(); start < now {
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
		// The fan-out tree always drives every core.
		h.a.stats.BNetFlits += uint64(n)
	} else if bcast {
		h.a.stats.StarBcastFlits += uint64(n)
	} else {
		h.a.stats.StarUniFlits += uint64(n)
	}

	h.a.outstanding++
	h.a.K.At(done, func() {
		h.a.outstanding--
		if bcast {
			base := h.clusterBaseCores()
			for _, c := range base {
				h.a.deliverCore(c, m)
			}
		} else {
			h.a.deliverCore(m.Dst, m)
		}
	})
}

// clusterBaseCores lists the core IDs in this hub's cluster.
func (h *hub) clusterBaseCores() []int {
	cfg := h.a.Cfg
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

// LinkUtilization returns the fraction of cycles the average hub's
// adaptive SWMR link spent transmitting (Table V), over runtime cycles.
func (a *Atac) LinkUtilization(runtime sim.Time) float64 {
	if runtime == 0 || len(a.hubs) == 0 {
		return 0
	}
	return float64(a.BusyCycles()) / (float64(runtime) * float64(len(a.hubs)))
}

// UnicastsPerBroadcast returns the average number of unicast packets sent
// on the ONet between successive broadcasts (Table V).
func (a *Atac) UnicastsPerBroadcast() float64 {
	s := a.Stats()
	if s.ONetBcastPkts == 0 {
		return float64(s.ONetUniPkts)
	}
	return float64(s.ONetUniPkts) / float64(s.ONetBcastPkts)
}
