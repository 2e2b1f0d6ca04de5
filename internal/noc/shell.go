package noc

import (
	"sort"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// shell is the composition the three optical fabrics (ATAC/ATAC+, the
// Corona crossbar and the hybrid) share: an electrical ENet in transport
// mode carrying every core-to-endpoint leg and every electrical path, the
// delivery hooks and counters, the per-pair reorder CAM, and the fault
// injector. A fabric embeds it and adds only what is its own: the routing
// decision, how its optical endpoints transmit, and where arrivals go.
type shell struct {
	K   *sim.Kernel
	Cfg *config.Config

	enet    *Mesh
	deliver DeliverFunc
	stats   Stats

	// pairs restores per-pair FIFO delivery (a small reorder CAM at each
	// receiving NIC in hardware) on fabrics whose per-pair path can vary
	// per message; nil when every pair's path is fixed.
	pairs *pairOrder

	// outstanding counts in-flight optical work: busy transmitters,
	// staged arrivals and receive-network bookings (Drained).
	outstanding int

	// atEndpoint takes a message that has reached the optical endpoint
	// (hub or gateway) attached to core ep.
	atEndpoint func(ep int, m *Message)

	inj *fault.Injector    // nil = perfect interconnect
	lat *metrics.Histogram // nil = latency histogram disabled
}

// init builds the ENet (with native multicast when multicast is set) and
// arms the reorder CAM when reorder is set.
func (s *shell) init(k *sim.Kernel, cfg *config.Config, multicast, reorder bool, atEndpoint func(ep int, m *Message)) {
	s.K, s.Cfg, s.atEndpoint = k, cfg, atEndpoint
	n := &cfg.Network
	s.enet = NewMesh(k, cfg.MeshDim(), n.FlitBits, n.BufFlits, n.RouterDelay, n.LinkDelay, multicast)
	s.enet.Transport = true
	s.enet.SetDeliver(s.enetDeliver)
	if reorder {
		s.pairs = newPairOrder(s.deliverNow)
	}
}

// SetDeliver implements Network.
func (s *shell) SetDeliver(fn DeliverFunc) { s.deliver = fn }

// SetFaults implements Network: link-level retry on the ENet, and the
// fabric's optical channels consult inj for per-flit errors, retry
// budget, backoff and degradation.
func (s *shell) SetFaults(inj *fault.Injector) {
	s.inj = inj
	s.enet.SetFaults(inj)
}

// SetLatencyHist implements Network.
func (s *shell) SetLatencyHist(h *metrics.Histogram) { s.lat = h }

// ENet exposes the underlying electrical mesh (for area/static accounting).
func (s *shell) ENet() *Mesh { return s.enet }

// Stats implements Network; ENet flit counters are folded in on read.
func (s *shell) Stats() *Stats {
	ms := s.enet.Stats()
	st := &s.stats
	st.MeshLinkFlits = ms.MeshLinkFlits
	st.MeshRouterFlits = ms.MeshRouterFlits
	st.MeshFlitErrors = ms.MeshFlitErrors
	st.MeshNacks = ms.MeshNacks
	st.MeshRetxFlits = ms.MeshRetxFlits
	st.MeshRetriesExhausted = ms.MeshRetriesExhausted
	return st
}

// Drained implements Network: no flit in the ENet, no optical work in
// flight, and no message held in the reorder CAM.
func (s *shell) Drained() bool {
	return s.enet.Drained() && s.outstanding == 0 && (s.pairs == nil || s.pairs.waiting == 0)
}

// accept counts and timestamps m at injection and returns its flit count.
// It delivers a self-send itself and then reports route == false; every
// other message (broadcasts included) is left to the fabric to route.
func (s *shell) accept(m *Message) (n int, route bool) {
	m.Inject = s.K.Now()
	n = FlitsFor(m.Bits, s.Cfg.Network.FlitBits)
	s.stats.InjectedFlits += uint64(n)
	if m.Dst == BroadcastDst {
		s.stats.BroadcastSent++
		return n, true
	}
	s.stats.UnicastSent++
	if s.pairs != nil {
		s.pairs.stamp(m)
	}
	if m.Dst == m.Src {
		s.K.Schedule(1, func() { s.deliverCore(m.Dst, m) })
		return n, false
	}
	return n, true
}

// toEndpoint carries m over the ENet to the optical endpoint attached to
// core ep, wrapped so the ejection is recognized; a message injected at
// the endpoint core itself reaches it one cycle later.
func (s *shell) toEndpoint(ep int, m *Message) {
	if m.Src == ep {
		s.K.Schedule(1, func() { s.atEndpoint(ep, m) })
		return
	}
	s.sendWrapped(m.Src, ep, m)
}

// sendWrapped carries m over the ENet from core src to core dst inside a
// wrapper, so that its ejection at dst is recognized (see enetDeliver).
func (s *shell) sendWrapped(src, dst int, m *Message) {
	s.enet.Send(&Message{Src: src, Dst: dst, Bits: m.Bits, Payload: m, viaHub: true, Inject: m.Inject})
}

// enetDeliver handles ENet ejections. A wrapper ejecting at the wrapped
// message's own destination is a final electrical leg completing (the
// hybrid's gateway-to-core leg); any other wrapper has reached its
// endpoint. Everything else is a final core delivery.
func (s *shell) enetDeliver(dst int, m *Message) {
	if m.viaHub {
		orig := m.Payload.(*Message)
		if dst == orig.Dst {
			s.deliverCore(dst, orig)
			return
		}
		s.atEndpoint(dst, orig)
		return
	}
	s.deliverCore(dst, m)
}

// deliverCore hands m to core dst, through the reorder CAM when armed.
func (s *shell) deliverCore(dst int, m *Message) {
	if s.pairs != nil && m.pairSeq != 0 {
		s.pairs.receive(dst, m)
		return
	}
	s.deliverNow(dst, m)
}

func (s *shell) deliverNow(dst int, m *Message) {
	s.stats.recordDelivery(m, s.K.Now(), s.lat)
	if s.deliver != nil {
		s.deliver(dst, m)
	}
}

// sender is the serializing transmitter of an SWMR optical endpoint (ATAC
// hub, hybrid gateway): a FIFO of messages sent one at a time on the
// endpoint's dedicated wavelength set.
type sender struct {
	s    *shell
	q    []*Message
	busy bool
	// send starts the first transmission attempt of m; the channel stays
	// busy until the fabric calls done.
	send func(m *Message)
}

// enqueue buffers m in the endpoint and starts it if the channel is idle.
func (t *sender) enqueue(m *Message) {
	t.s.stats.HubFlits += uint64(FlitsFor(m.Bits, t.s.Cfg.Network.FlitBits))
	t.q = append(t.q, m)
	if !t.busy {
		t.busy = true
		t.s.outstanding++
		t.next()
	}
}

func (t *sender) next() {
	m := t.q[0]
	t.q = t.q[1:]
	t.send(m)
}

// done releases the channel after a completed transfer and starts the
// next queued message.
func (t *sender) done() {
	if len(t.q) > 0 {
		t.next()
		return
	}
	t.busy = false
	t.s.outstanding--
}

// chanHealth is the fault state of one optical channel that can degrade:
// the flits and errors observed in the current degradation window, and
// the sticky degraded flag that diverts the sender's unicasts to the ENet.
type chanHealth struct {
	winFlits, winErrs uint64
	degraded          bool
}

// corrupted draws the per-flit optical errors of one n-flit reception
// (evaluated sender-side at transmit time, modelling the receiver's CRC
// check and NACK) and feeds them into ch's degradation window; ch is nil
// for a channel that never degrades. retx is the attempts already spent:
// once the retry budget is gone the reception is forced — residual
// errors are modelled as recovered by end-to-end FEC — so errors are
// recorded but it never fails.
func (s *shell) corrupted(ch *chanHealth, n int, retx uint8) bool {
	if s.inj == nil {
		return false
	}
	errs := 0
	for i := 0; i < n; i++ {
		if s.inj.OpticalFlitError() {
			errs++
		}
	}
	s.stats.OpticalFlitErrors += uint64(errs)
	if ch != nil {
		s.observe(ch, n, errs)
	}
	if errs == 0 {
		return false
	}
	if int(retx) >= s.inj.MaxRetries() {
		s.stats.OpticalRetriesExhausted++
		return false
	}
	s.stats.OpticalNacks++
	return true
}

// observe feeds one reception's flit/error counts into ch's degradation
// window; when the window fills with an observed error rate above the
// threshold, the channel is declared degraded (sticky).
func (s *shell) observe(ch *chanHealth, flits, errs int) {
	inj := s.inj
	if ch.degraded || inj.DegradeThreshold() <= 0 {
		return
	}
	ch.winFlits += uint64(flits)
	ch.winErrs += uint64(errs)
	if ch.winFlits < uint64(inj.DegradeWindow()) {
		return
	}
	if float64(ch.winErrs)/float64(ch.winFlits) > inj.DegradeThreshold() {
		ch.degraded = true
		s.stats.DegradedChannels++
	}
	ch.winFlits, ch.winErrs = 0, 0
}

// divert reports whether an optical unicast of n flits must take the ENet
// instead because its channel ch is degraded, counting it as rerouted.
// Broadcasts never divert: they stay optical, protected by
// retransmission, since diverting them would break the per-slice
// broadcast FIFO the coherence protocol's sequence numbers assume.
func (s *shell) divert(ch *chanHealth, n int) bool {
	if !ch.degraded {
		return false
	}
	s.stats.ReroutedMsgs++
	s.stats.ReroutedFlits += uint64(n)
	return true
}

// arrivals stages the optical arrivals at one receiving endpoint per
// arrival cycle and hands each cycle's batch to take in sender order: the
// receiver's greedy bookings depend on processing order, and a canonical
// drain keeps them from depending on where sender events happen to sit in
// the cycle's bucket. Every arrival is staged at least two cycles ahead,
// so a cycle's stage is complete when it drains.
type arrivals struct {
	s       *shell
	byCycle map[sim.Time][]rxJob
	take    func(m *Message, n int)
}

// rxJob is one staged optical arrival: the sender endpoint (the canonical
// drain key — a serializing sender lands at most one arrival per receiver
// per cycle) and the message it carries.
type rxJob struct {
	from int
	m    *Message
	n    int
}

// add stages m (n flits, from sender endpoint from) for cycle at.
func (a *arrivals) add(at sim.Time, m *Message, n, from int) {
	a.s.outstanding++
	if a.byCycle == nil {
		a.byCycle = make(map[sim.Time][]rxJob)
	}
	jobs := a.byCycle[at]
	a.byCycle[at] = append(jobs, rxJob{from, m, n})
	if len(jobs) == 0 {
		a.s.K.At(at, func() { a.drain(at) })
	}
}

func (a *arrivals) drain(at sim.Time) {
	jobs := a.byCycle[at]
	delete(a.byCycle, at)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].from < jobs[j].from })
	for _, j := range jobs {
		a.s.outstanding--
		a.take(j.m, j.n)
	}
}

// rxNet is one cluster's receive network from its optical endpoint to its
// cores: StarNetsPerCl parallel servers (StarNet demuxes or BNet fan-out
// trees), each arrival taking the earliest-free one.
type rxNet struct {
	s     *shell
	cores []int // the cluster's cores, the targets of a broadcast
	// free[i] is the time receive network i is next available.
	free []sim.Time
	// lastDone enforces in-order delivery completion across the parallel
	// receive networks: the coherence protocol's sequence-number scheme
	// assumes broadcasts and unicasts each stay FIFO among themselves
	// (Section IV-C1), so two receive networks must not reorder messages
	// arriving at the same cluster.
	lastDone sim.Time
}

func newRxNet(s *shell, cluster int) rxNet {
	cfg := s.Cfg
	dim, cd := cfg.MeshDim(), cfg.ClusterDim
	cw := dim / cd
	cx, cy := cluster%cw, cluster/cw
	cores := make([]int, 0, cfg.ClusterCores())
	for y := 0; y < cd; y++ {
		for x := 0; x < cd; x++ {
			cores = append(cores, (cy*cd+y)*dim+cx*cd+x)
		}
	}
	return rxNet{s: s, cores: cores, free: make([]sim.Time, cfg.Network.StarNetsPerCl)}
}

// receive books an optical arrival of n flits on the earliest-free
// receive network (FIFO service) and delivers it when the transfer
// completes: to its destination core, or to every core of the cluster
// for a broadcast.
func (r *rxNet) receive(m *Message, n int) {
	s := r.s
	s.stats.HubFlits += uint64(n)

	best := 0
	for i, f := range r.free {
		if f < r.free[best] {
			best = i
		}
	}
	start := r.free[best]
	if now := s.K.Now(); start < now {
		start = now
	}
	r.free[best] = start + sim.Time(n)
	done := start + sim.Time(n) + sim.Time(s.Cfg.Network.LinkDelay)
	if done < r.lastDone {
		done = r.lastDone
	}
	r.lastDone = done

	bcast := m.Dst == BroadcastDst
	if s.Cfg.Network.ReceiveNet == config.BNet {
		// The fan-out tree always drives every core.
		s.stats.BNetFlits += uint64(n)
	} else if bcast {
		s.stats.StarBcastFlits += uint64(n)
	} else {
		s.stats.StarUniFlits += uint64(n)
	}

	s.outstanding++
	s.K.At(done, func() {
		s.outstanding--
		if bcast {
			for _, c := range r.cores {
				s.deliverCore(c, m)
			}
		} else {
			s.deliverCore(m.Dst, m)
		}
	})
}
