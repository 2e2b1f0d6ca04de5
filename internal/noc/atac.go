package noc

import (
	"fmt"

	"repro/internal/config"
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
	shell

	hubs []*hub
	// pendingTX[cluster] counts messages committed to that cluster's
	// optical channel but not yet transmitted (the token counter the
	// adaptive routing policy consults).
	pendingTX []int
}

// NewAtac builds the fabric from a validated config with an optical
// network kind, on kernel k.
func NewAtac(k *sim.Kernel, cfg *config.Config) *Atac {
	if !cfg.Network.Kind.IsOptical() {
		panic(fmt.Sprintf("noc: NewAtac called for %v", cfg.Network.Kind))
	}
	a := &Atac{}
	// Per-pair FIFO restoration is needed whenever a pair's path can vary
	// per message: under adaptive routing, and under fault injection,
	// where channel degradation reroutes optical unicasts onto the ENet
	// mid-run (optical retransmission itself is stop-and-wait and cannot
	// reorder, but the optical->electrical switch can). The oblivious
	// policies' fixed paths are FIFO by construction.
	reorder := cfg.Network.Routing == config.AdaptiveRouting || cfg.Fault.Enabled
	a.init(k, cfg, false, reorder, func(ep int, m *Message) {
		a.hubs[cfg.ClusterOf(ep)].tx.enqueue(m)
	})
	a.pendingTX = make([]int, cfg.Clusters())
	a.hubs = make([]*hub, cfg.Clusters())
	for i := range a.hubs {
		h := &hub{a: a, cluster: i, rx: newRxNet(&a.shell, i)}
		h.tx = sender{s: &a.shell, send: func(m *Message) { h.transmit(m, nil) }}
		h.stage = arrivals{s: &a.shell, take: h.rx.receive}
		a.hubs[i] = h
	}
	return a
}

// DegradedClusters lists the clusters whose optical channel has been
// declared degraded (observability hook).
func (a *Atac) DegradedClusters() []int {
	var out []int
	for i, h := range a.hubs {
		if h.health.degraded {
			out = append(out, i)
		}
	}
	return out
}

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

// Send implements Network.
func (a *Atac) Send(m *Message) {
	n, route := a.accept(m)
	if !route {
		return
	}
	if m.Dst == BroadcastDst {
		a.sendViaHub(m)
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
	// observed-error threshold routes its unicasts over the ENet.
	if useONet && !a.divert(&a.hubs[srcCl].health, n) {
		a.sendViaHub(m)
	} else {
		a.enet.Send(m)
	}
}

// sendViaHub commits m to its cluster's optical channel and routes it
// over the ENet to the cluster hub.
func (a *Atac) sendViaHub(m *Message) {
	cl := a.Cfg.ClusterOf(m.Src)
	a.pendingTX[cl]++
	a.toEndpoint(a.Cfg.HubCore(cl), m)
}

// hub is one cluster's ONet endpoint: a serializing optical transmitter
// (the cluster's dedicated SWMR channel) plus the receive networks
// distributing arrivals to the cluster's cores.
type hub struct {
	a       *Atac
	cluster int

	tx sender
	// stage collects optical arrivals per arrival cycle and books them on
	// rx in sender-cluster order.
	stage arrivals
	rx    rxNet

	// Adaptive SWMR bookkeeping (Table V).
	busyCycles   uint64
	uniSinceLast uint64

	// health tracks the channel's observed errors (fault injection).
	health chanHealth
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
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, cl)
				continue
			}
			rx.stage.add(h.a.K.Now()+arrive, m, n, h.cluster)
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
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, rx.cluster)
				continue
			}
			rx.stage.add(h.a.K.Now()+arrive, m, n, h.cluster)
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
			if h.corrupted(rx, n, m.retx) {
				failed = append(failed, rx.cluster)
				continue
			}
			rx.stage.add(h.a.K.Now()+arrive, m, n, h.cluster)
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
		if h.corrupted(rx, n, m.retx) {
			failed = append(failed, rx.cluster)
		} else {
			rx.stage.add(h.a.K.Now()+sim.Time(lag+1+oDelay), m, n, h.cluster)
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
		h.tx.done()
	})
}

// corrupted reports whether receiving hub rx's copy of an n-flit
// transmission failed. The sending hub's own copy bypasses the optical
// loop and cannot be corrupted.
func (h *hub) corrupted(rx *hub, n int, retx uint8) bool {
	return rx != h && h.a.shell.corrupted(&h.health, n, retx)
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
