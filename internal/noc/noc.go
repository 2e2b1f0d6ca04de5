// Package noc implements cycle-level models of the on-chip networks the
// paper evaluates and their architectural alternatives: a wormhole
// electrical 2-D mesh (EMesh-Pure), the same mesh with native tree
// multicast (EMesh-BCast), the composed ATAC/ATAC+ fabric (ENet mesh +
// adaptive SWMR optical ONet + BNet/StarNet cluster receive networks) with
// cluster- or distance-based routing, a Corona-style token-arbitrated MWSR
// optical crossbar, and a MorphoNoC-style electrical/photonic hybrid.
//
// All networks implement the Network interface; the coherence layer and the
// synthetic-traffic harness (Fig 3) use networks through it exclusively.
// Every model is flit-accurate: wormhole flow control with credit-based
// back-pressure and a single virtual channel, per Table I. Endpoint
// ejection always drains into unbounded protocol queues, which keeps the
// fabric free of protocol-level deadlock (see DESIGN.md).
package noc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// BroadcastDst marks a message addressed to every core.
const BroadcastDst = -1

// Class labels a message for statistics; the energy model does not need
// it, but traffic-mix figures (Fig 5) do.
type Class uint8

const (
	ClassCoherence Class = iota // short protocol message (requests, acks)
	ClassData                   // cache-line-carrying message
)

// Message is one network transaction. A broadcast (Dst == BroadcastDst) is
// delivered once to every core, including the sender's.
type Message struct {
	Src, Dst int
	Class    Class
	Bits     int // total size incl. header; flit count derives from this
	Payload  any
	Inject   sim.Time // set by the network at Send time

	// ViaHub is used internally by the ATAC fabric: the message is
	// ENet-routed to the cluster hub rather than to a core.
	viaHub bool
	// origBcast marks per-destination clones of a serialized broadcast
	// (EMesh-Pure) so receiver-side traffic statistics stay correct.
	origBcast bool
	// pairSeq is the per-(src,dst) sequence number the ATAC fabric uses
	// to restore FIFO delivery under adaptive routing (0 = unsequenced).
	pairSeq uint64
	// retx counts optical retransmission attempts already spent on this
	// message (fault injection; bounded by the injector's MaxRetries).
	retx uint8
}

// IsBroadcast reports whether this delivery belongs to a logical broadcast,
// including serialized per-destination clones on EMesh-Pure.
func (m *Message) IsBroadcast() bool { return m.Dst == BroadcastDst || m.origBcast }

// DeliverFunc receives a message at core dst. For broadcasts it is invoked
// once per core.
type DeliverFunc func(dst int, m *Message)

// Network is the interface all fabrics implement.
type Network interface {
	// Send injects m at m.Src. The network takes ownership of m.
	Send(m *Message)
	// SetDeliver installs the ejection callback. Must be called before
	// the first Send.
	SetDeliver(fn DeliverFunc)
	// Stats returns the live counter block.
	Stats() *Stats
	// SetFaults arms fault injection; nil leaves the fabric perfect.
	// Must be called before the first Send.
	SetFaults(inj *fault.Injector)
	// SetLatencyHist attaches a per-delivery latency histogram (nil
	// disables it again). The delivery path pays one nil check when
	// unobserved.
	SetLatencyHist(h *metrics.Histogram)
	// Drained reports quiescence: no flit buffered, no transmission in
	// flight, no delivery pending. The conservation tests assert it after
	// the kernel runs dry — a fabric that is not drained then has lost
	// traffic.
	Drained() bool
}

// New builds the fabric a validated config's network kind names, on
// kernel k. It is the one place that maps a network kind to a fabric.
func New(k *sim.Kernel, cfg *config.Config) Network {
	n := &cfg.Network
	switch n.Kind {
	case config.EMeshPure, config.EMeshBCast:
		return NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, n.Kind == config.EMeshBCast)
	case config.ATAC, config.ATACPlus:
		return NewAtac(k, cfg)
	case config.Corona:
		return NewCrossbar(k, cfg)
	case config.HybridMesh:
		return NewHybrid(k, cfg)
	}
	panic(fmt.Sprintf("noc: unknown network kind %v", n.Kind))
}

// FlitsFor returns the number of flits needed for bits at the given flit
// width (minimum 1).
func FlitsFor(bits, flitBits int) int {
	if bits <= 0 {
		return 1
	}
	n := (bits + flitBits - 1) / flitBits
	if n < 1 {
		n = 1
	}
	return n
}

// Stats aggregates every countable network event needed by the performance
// figures and the energy model. All counts are events, not rates.
type Stats struct {
	// Message-level counts.
	UnicastSent   uint64
	BroadcastSent uint64
	Delivered     uint64 // per-receiver deliveries
	UnicastRecv   uint64 // unicast deliveries (Fig 5 is receiver-measured)
	BroadcastRecv uint64 // broadcast deliveries (one per receiver)
	InjectedFlits uint64 // flits entering any injection queue (Fig 6)
	LatencySum    uint64 // cycles, inject -> delivery (per delivery)
	LatencyCount  uint64
	LatencyMax    uint64
	// Per-class delivery latency (coherence control vs data-carrying).
	CtrlLatencySum, CtrlLatencyCount uint64
	DataLatencySum, DataLatencyCount uint64

	// Electrical mesh events (ENet or EMesh).
	MeshLinkFlits   uint64 // flit-link traversals
	MeshRouterFlits uint64 // flit-router traversals (buffer wr+rd+xbar)

	// ATAC hub / optical events.
	HubFlits         uint64 // flits buffered through a hub (either direction)
	ONetUniFlits     uint64 // data-link flits sent in unicast mode
	ONetBcastFlits   uint64 // data-link flits sent in broadcast mode
	ONetUniPkts      uint64
	ONetBcastPkts    uint64
	SelectEvents     uint64 // select-link notifications
	LaserUniCycles   uint64 // cycles any data laser spent in unicast mode
	LaserBcastCycles uint64 // cycles any data laser spent in broadcast mode

	// Receive-network events.
	BNetFlits      uint64 // flits broadcast over a BNet tree
	StarUniFlits   uint64 // flits over a single StarNet link
	StarBcastFlits uint64 // flits over all StarNet links of a cluster

	// Corona crossbar events. The token counters back the token-
	// conservation property: after a drain every granted token has been
	// returned to the serpentine ring.
	XbarPkts        uint64 // packets sent over a home channel
	XbarFlits       uint64 // data flits sent over a home channel
	XbarLaserCycles uint64 // cycles any home-channel laser spent transmitting
	TokenWaitCycles uint64 // cycles packets waited for a channel token (request -> first flit)
	TokensGranted   uint64 // channel tokens handed to a writer
	TokensReturned  uint64 // channel tokens released back to the ring

	// HybridMesh photonic-express events.
	ExpressPkts        uint64 // packets sent over a gateway express link
	ExpressFlits       uint64 // data flits sent over a gateway express link
	ExpressLaserCycles uint64 // cycles any express laser spent transmitting

	// Fault-injection / resilience events (internal/fault). All zero
	// when the fault layer is disabled.
	MeshFlitErrors          uint64 // electrical link crossings NACKed by the receiver
	MeshNacks               uint64 // link-level NACK wire traversals (== errors)
	MeshRetxFlits           uint64 // link-level retransmission crossings
	MeshRetriesExhausted    uint64 // flits forced through after the retry budget
	OpticalFlitErrors       uint64 // ONet data-link flits corrupted at a receiving hub
	OpticalNacks            uint64 // corrupted optical receptions (per hub, per attempt)
	OpticalRetxPkts         uint64 // optical retransmission attempts (channel slots)
	OpticalRetxFlits        uint64 // flits re-sent over the ONet
	OpticalRetriesExhausted uint64 // packets forced through after the retry budget
	ReroutedMsgs            uint64 // unicasts diverted to the ENet by degraded channels
	ReroutedFlits           uint64
	DegradedChannels        uint64 // optical channels currently degraded (gauge)
}

// FaultEvents reports whether any resilience counter is nonzero (used by
// reports to decide whether to print the resilience block).
func (s *Stats) FaultEvents() bool {
	return s.MeshFlitErrors != 0 || s.OpticalFlitErrors != 0 ||
		s.ReroutedMsgs != 0 || s.DegradedChannels != 0
}

// recordDelivery counts one delivery of m at time now and records its
// latency, also into hist when one is attached.
func (s *Stats) recordDelivery(m *Message, now sim.Time, hist *metrics.Histogram) {
	s.Delivered++
	if m.IsBroadcast() {
		s.BroadcastRecv++
	} else {
		s.UnicastRecv++
	}
	s.RecordLatency(now - m.Inject)
	s.RecordClassLatency(m.Class, now-m.Inject)
	hist.Observe(uint64(now - m.Inject))
}

// RecordLatency adds one delivery latency observation.
func (s *Stats) RecordLatency(d sim.Time) {
	s.LatencySum += uint64(d)
	s.LatencyCount++
	if uint64(d) > s.LatencyMax {
		s.LatencyMax = uint64(d)
	}
}

// RecordClassLatency adds a per-class latency observation.
func (s *Stats) RecordClassLatency(c Class, d sim.Time) {
	if c == ClassData {
		s.DataLatencySum += uint64(d)
		s.DataLatencyCount++
	} else {
		s.CtrlLatencySum += uint64(d)
		s.CtrlLatencyCount++
	}
}

// AvgClassLatency returns the mean latency for a message class.
func (s *Stats) AvgClassLatency(c Class) float64 {
	if c == ClassData {
		if s.DataLatencyCount == 0 {
			return 0
		}
		return float64(s.DataLatencySum) / float64(s.DataLatencyCount)
	}
	if s.CtrlLatencyCount == 0 {
		return 0
	}
	return float64(s.CtrlLatencySum) / float64(s.CtrlLatencyCount)
}

// AvgLatency returns the mean delivery latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}

// pairKey names one (source, destination) core pair.
type pairKey struct{ src, dst int }

// pairOrder restores per-pair FIFO delivery on fabrics whose paths can
// vary per message (a small reorder CAM at each receiving NIC in
// hardware): stamp numbers a pair's messages at the sender, and receive
// holds an early arrival until its predecessors have been delivered.
type pairOrder struct {
	next    map[pairKey]uint64
	want    map[pairKey]uint64
	held    map[pairKey]map[uint64]*Message
	waiting int // messages in held
	deliver DeliverFunc
}

func newPairOrder(deliver DeliverFunc) *pairOrder {
	return &pairOrder{
		next:    make(map[pairKey]uint64),
		want:    make(map[pairKey]uint64),
		held:    make(map[pairKey]map[uint64]*Message),
		deliver: deliver,
	}
}

// stamp gives m the next sequence number of its pair (1-based; 0 means
// unsequenced).
func (p *pairOrder) stamp(m *Message) {
	k := pairKey{m.Src, m.Dst}
	m.pairSeq = p.next[k] + 1
	p.next[k] = m.pairSeq
}

// receive delivers m to core dst if it is next in its pair's order,
// followed by any consecutively held successors; otherwise it holds m.
func (p *pairOrder) receive(dst int, m *Message) {
	k := pairKey{m.Src, m.Dst}
	want := p.want[k] + 1
	if m.pairSeq != want {
		held := p.held[k]
		if held == nil {
			held = make(map[uint64]*Message)
			p.held[k] = held
		}
		held[m.pairSeq] = m
		p.waiting++
		return
	}
	p.want[k] = want
	p.deliver(dst, m)
	for {
		held := p.held[k]
		next, ok := held[p.want[k]+1]
		if !ok {
			return
		}
		delete(held, p.want[k]+1)
		p.waiting--
		p.want[k]++
		p.deliver(dst, next)
	}
}
