package noc

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Port indices. Inputs 0-3 receive from the neighbour in that direction;
// input 4 is the local injection queue. Outputs 0-3 drive the link toward
// that neighbour; output 4 is the ejection port.
const (
	portN = iota
	portS
	portE
	portW
	portLocal
	numPorts
)

func opposite(p int) int {
	switch p {
	case portN:
		return portS
	case portS:
		return portN
	case portE:
		return portW
	case portW:
		return portE
	}
	return p
}

// Multicast worm phases for the EMesh-BCast XY replication tree: a
// broadcast spawns row worms east/west from the source; every router a row
// worm visits spawns column worms north/south, so each core is delivered
// exactly once.
type mcPhase uint8

const (
	phaseNone mcPhase = iota
	phaseRowE
	phaseRowW
	phaseColN
	phaseColS
)

type flit struct {
	msg   *Message
	worm  uint64 // unique per worm; wormhole locks are per-worm, not per-message
	phase mcPhase
	idx   int // flit index within the worm
	n     int // total flits in the worm

	// vis is the first cycle the switch allocator may consider this flit
	// (input-register staging): a flit landing off a link — or injected
	// locally — at cycle c is arbitrable from c+1, never the same cycle.
	// This kills every arrival/tick and Send/tick same-cycle ordering
	// dependence, so a router's behaviour never hangs on where its tick
	// event sits in the cycle's bucket — which is what real registered
	// router pipelines do anyway. Local injections are staged too:
	// whether the tick lands before or after a Send in the same cycle
	// depends on event push positions, an artifact of the kernel rather
	// than of the modelled hardware. The cache schema and goldens pin
	// this timing.
	vis sim.Time

	// Link-level retry state (fault injection). attempts counts failed
	// crossings of the current hop; retryAt gates the flit until its
	// backoff expires. Both reset when the flit advances a hop.
	attempts uint8
	retryAt  sim.Time
}

func (f flit) head() bool { return f.idx == 0 }
func (f flit) tail() bool { return f.idx == f.n-1 }

// Mesh is a dim x dim wormhole-routed electrical mesh with XY dimension-
// order routing, credit flow control and a single virtual channel. With
// Multicast enabled it is the EMesh-BCast network; without, broadcasts are
// serialized into unicasts at the source (EMesh-Pure).
type Mesh struct {
	K           *sim.Kernel
	Dim         int
	FlitBits    int
	BufFlits    int
	RouterDelay int
	LinkDelay   int
	Multicast   bool
	// Transport marks this mesh as an internal leg of a composed fabric
	// (the ATAC ENet): message-level statistics (send counts, latency,
	// injection) are left to the owner; only flit-level transport
	// counters are maintained here.
	Transport bool

	routers []*router
	deliver DeliverFunc
	stats   Stats
	wormSeq uint64
	inj     *fault.Injector    // nil = perfect links
	lat     *metrics.Histogram // nil = latency histogram disabled
}

// NewMesh builds the mesh on kernel k. It panics on a non-positive geometry: meshes are constructed from
// validated configs.
func NewMesh(k *sim.Kernel, dim, flitBits, bufFlits, routerDelay, linkDelay int, multicast bool) *Mesh {
	if dim <= 0 || flitBits <= 0 || bufFlits <= 0 || routerDelay <= 0 || linkDelay <= 0 {
		panic(fmt.Sprintf("noc: bad mesh geometry dim=%d flit=%d buf=%d", dim, flitBits, bufFlits))
	}
	m := &Mesh{
		K: k, Dim: dim, FlitBits: flitBits, BufFlits: bufFlits,
		RouterDelay: routerDelay, LinkDelay: linkDelay, Multicast: multicast,
	}
	m.routers = make([]*router, dim*dim)
	for i := range m.routers {
		r := &router{m: m, id: i, x: i % dim, y: i / dim}
		r.tickFn = r.tick
		for o := 0; o < 4; o++ {
			r.outCredit[o] = bufFlits
			d := o
			r.arriveFn[d] = func() { r.linkArrive(d) }
		}
		m.routers[i] = r
	}
	return m
}

// SetDeliver installs the ejection callback.
func (m *Mesh) SetDeliver(fn DeliverFunc) { m.deliver = fn }

// SetFaults arms link-level fault injection: every link crossing may be
// corrupted per the injector's mesh BER, detected at the downstream
// router and NACKed back, and the flit retransmitted from the upstream
// buffer after exponential backoff (hop-by-hop retry, so flit and message
// ordering are preserved). Must be set before the first Send; a nil
// injector leaves the mesh perfect.
func (m *Mesh) SetFaults(inj *fault.Injector) { m.inj = inj }

// Stats returns the live counters.
func (m *Mesh) Stats() *Stats { return &m.stats }

// SetLatencyHist attaches a per-delivery latency histogram (nil disables
// it again). The delivery path pays one nil check when unobserved.
func (m *Mesh) SetLatencyHist(h *metrics.Histogram) { m.lat = h }

// Send implements Network.
func (m *Mesh) Send(msg *Message) {
	src := m.routers[msg.Src]
	st := &m.stats
	if !m.Transport {
		msg.Inject = m.K.Now()
	}
	n := FlitsFor(msg.Bits, m.FlitBits)
	if msg.Dst == BroadcastDst {
		if !m.Transport {
			st.BroadcastSent++
			st.InjectedFlits += uint64(n)
		}
		// Local copy to the source core.
		m.K.Schedule(1, func() { m.eject(msg.Src, msg) })
		if m.Multicast {
			src.spawnRowAndCols(msg, n)
		} else {
			// EMesh-Pure: one serialized unicast per other core. Each
			// clone shares the payload but carries a concrete
			// destination so XY routing works; origBcast keeps the
			// receiver-side traffic-mix statistics honest.
			for d := 0; d < m.Dim*m.Dim; d++ {
				if d != msg.Src {
					c := *msg
					c.Dst = d
					c.origBcast = true
					src.enqueueWorm(&c, phaseNone, n)
				}
			}
		}
		return
	}
	if !m.Transport {
		st.UnicastSent++
		st.InjectedFlits += uint64(n)
	}
	if msg.Dst == msg.Src {
		m.K.Schedule(1, func() { m.eject(msg.Dst, msg) })
		return
	}
	src.enqueueWorm(msg, phaseNone, n)
}

// RouterFlits returns the per-router forwarded-flit counts (row-major),
// the spatial traffic distribution used for congestion heatmaps.
func (m *Mesh) RouterFlits() []uint64 {
	out := make([]uint64, len(m.routers))
	for i, r := range m.routers {
		out[i] = r.fwdFlits
	}
	return out
}

// Drained reports whether no flits remain anywhere in the mesh, including
// flits in flight on a link (test hook).
func (m *Mesh) Drained() bool {
	for _, r := range m.routers {
		for p := 0; p < numPorts; p++ {
			if r.inHead[p] < len(r.in[p]) {
				return false
			}
		}
		for d := 0; d < 4; d++ {
			if r.linkHead[d] < len(r.linkQ[d]) {
				return false
			}
		}
	}
	return true
}

func (m *Mesh) eject(dst int, msg *Message) {
	if !m.Transport {
		m.stats.recordDelivery(msg, m.K.Now(), m.lat)
	}
	if m.deliver != nil {
		m.deliver(dst, msg)
	}
}

// router is one mesh node. All state is touched only from kernel events.
//
// Input queues and the per-link staging queues are ring-free FIFOs: a head
// index advances on pop, and the backing array is reused (reset to [:0])
// whenever the queue drains, so steady-state flit traffic allocates
// nothing. Each inbound link has one pre-allocated arrival event closure
// (arriveFn), so a link crossing schedules no per-flit closure either.
type router struct {
	m      *Mesh
	id     int
	x, y   int
	tickFn func()

	in     [numPorts][]flit
	inHead [numPorts]int
	// linkQ stages flits in flight on each inbound link. A direction has
	// exactly one upstream sender moving at most one flit per cycle with a
	// constant link delay, so arrival order equals staging order and the
	// FIFO pop in linkArrive reproduces per-flit event capture exactly.
	linkQ    [4][]flit
	linkHead [4]int
	arriveFn [4]func()

	fwdFlits  uint64 // flits this router moved (heatmap observability)
	outCredit [4]int // credits spendable now (downstream buffer slots)
	// credQ stages credits returning on each output's reverse wire: the
	// downstream router frees a slot at cycle c, and the credit becomes
	// spendable here at c + LinkDelay (registered credit return — the
	// wire is symmetric). Entries are (free-cycle) stamps in
	// nondecreasing order; drainCredits folds the mature ones into
	// outCredit at the top of each tick. Same staging discipline as flit
	// arrival: no same-cycle cross-tile visibility, so the order in which
	// routers tick inside a cycle cannot change when a credit is spent.
	credQ     [4][]sim.Time
	credHead  [4]int
	outLock   [numPorts]uint64 // worm holding each output; 0 = free
	lockedIn  [numPorts]int    // input the locked worm streams from
	rr        [numPorts]int    // round-robin arbitration pointer
	scheduled bool
}

// qempty reports whether input port p has no queued flits.
func (r *router) qempty(p int) bool { return r.inHead[p] == len(r.in[p]) }

// qfront returns the head flit of input port p (callers check qempty).
func (r *router) qfront(p int) *flit { return &r.in[p][r.inHead[p]] }

// qpop removes and returns the head flit of input port p, recycling the
// backing array once the queue drains.
func (r *router) qpop(p int) flit {
	f := r.in[p][r.inHead[p]]
	r.in[p][r.inHead[p]] = flit{} // drop the *Message reference for GC
	r.inHead[p]++
	if r.inHead[p] == len(r.in[p]) {
		r.in[p] = r.in[p][:0]
		r.inHead[p] = 0
	}
	return f
}

func (r *router) neighbor(dir int) *router {
	switch dir {
	case portN:
		if r.y == 0 {
			return nil
		}
		return r.m.routers[r.id-r.m.Dim]
	case portS:
		if r.y == r.m.Dim-1 {
			return nil
		}
		return r.m.routers[r.id+r.m.Dim]
	case portE:
		if r.x == r.m.Dim-1 {
			return nil
		}
		return r.m.routers[r.id+1]
	case portW:
		if r.x == 0 {
			return nil
		}
		return r.m.routers[r.id-1]
	}
	return nil
}

// spawnRowAndCols seeds the multicast tree at the source router.
func (r *router) spawnRowAndCols(msg *Message, n int) {
	if r.x < r.m.Dim-1 {
		r.enqueueWorm(msg, phaseRowE, n)
	}
	if r.x > 0 {
		r.enqueueWorm(msg, phaseRowW, n)
	}
	r.spawnCols(msg, n)
}

func (r *router) spawnCols(msg *Message, n int) {
	if r.y > 0 {
		r.enqueueWorm(msg, phaseColN, n)
	}
	if r.y < r.m.Dim-1 {
		r.enqueueWorm(msg, phaseColS, n)
	}
}

// enqueueWorm constructs a worm's flits directly in the local injection
// queue (no intermediate worm slice). Worm ids are 1, 2, 3, ...; zero
// marks a free output lock.
func (r *router) enqueueWorm(msg *Message, ph mcPhase, n int) {
	r.m.wormSeq++
	id := r.m.wormSeq
	q := r.in[portLocal]
	vis := r.m.K.Now() + 1 // input-register staging, same as link arrival
	for i := 0; i < n; i++ {
		q = append(q, flit{msg: msg, worm: id, phase: ph, idx: i, n: n, vis: vis})
	}
	r.in[portLocal] = q
	r.wake()
}

// linkArrive lands the oldest in-flight flit of inbound link p in its
// input queue, stamped visible from the next cycle (input-register
// staging). It is the pre-allocated event target for link crossings.
func (r *router) linkArrive(p int) {
	f := r.linkQ[p][r.linkHead[p]]
	r.linkQ[p][r.linkHead[p]] = flit{}
	r.linkHead[p]++
	if r.linkHead[p] == len(r.linkQ[p]) {
		r.linkQ[p] = r.linkQ[p][:0]
		r.linkHead[p] = 0
	}
	f.vis = r.m.K.Now() + 1
	r.in[p] = append(r.in[p], f)
	r.wake()
}

// pushCredit stages one returning credit for output out, freed downstream
// at cycle freed. No wake: a router with flits waiting on credit re-arms
// its own tick every cycle (the end-of-tick wake), and a router with no
// queued flits has nothing a credit could move — so a wake-on-credit
// would be behaviorally a no-op.
func (r *router) pushCredit(out int, freed sim.Time) {
	r.credQ[out] = append(r.credQ[out], freed)
}

// drainCredits folds credits that have completed the reverse-wire
// crossing (freed + LinkDelay <= now) into the spendable pool.
func (r *router) drainCredits(now sim.Time) {
	ld := sim.Time(r.m.LinkDelay)
	for out := 0; out < 4; out++ {
		q := r.credQ[out]
		h := r.credHead[out]
		for h < len(q) && q[h]+ld <= now {
			r.outCredit[out]++
			h++
		}
		if h == len(q) {
			r.credQ[out] = q[:0]
			r.credHead[out] = 0
		} else {
			r.credHead[out] = h
		}
	}
}

func (r *router) wake() {
	if r.scheduled {
		return
	}
	r.scheduled = true
	r.m.K.Schedule(sim.Time(r.m.RouterDelay), r.tickFn)
}

// route returns the output port for a head flit at this router.
func (r *router) route(f flit) int {
	switch f.phase {
	case phaseRowE:
		if r.x < r.m.Dim-1 {
			return portE
		}
		return portLocal
	case phaseRowW:
		if r.x > 0 {
			return portW
		}
		return portLocal
	case phaseColN:
		if r.y > 0 {
			return portN
		}
		return portLocal
	case phaseColS:
		if r.y < r.m.Dim-1 {
			return portS
		}
		return portLocal
	}
	// XY dimension order toward msg.Dst.
	dx, dy := f.msg.Dst%r.m.Dim, f.msg.Dst/r.m.Dim
	switch {
	case dx > r.x:
		return portE
	case dx < r.x:
		return portW
	case dy > r.y:
		return portS
	case dy < r.y:
		return portN
	default:
		return portLocal
	}
}

// tick advances the router by one cycle: at most one flit per output port.
func (r *router) tick() {
	r.scheduled = false
	now := r.m.K.Now()
	r.drainCredits(now)
	for out := 0; out < numPorts; out++ {
		var inp = -1
		if w := r.outLock[out]; w != 0 {
			cand := r.lockedIn[out]
			if !r.qempty(cand) {
				if f := r.qfront(cand); f.worm == w && f.retryAt <= now && f.vis <= now {
					inp = cand
				}
			}
		} else {
			// Round-robin over inputs with an eligible head flit.
			for k := 0; k < numPorts; k++ {
				p := (r.rr[out] + k) % numPorts
				if r.qempty(p) {
					continue
				}
				f := r.qfront(p)
				if !f.head() || f.retryAt > now || f.vis > now {
					continue
				}
				if r.route(*f) == out {
					inp = p
					r.rr[out] = (p + 1) % numPorts
					break
				}
			}
		}
		if inp < 0 {
			continue
		}
		if out != portLocal && r.outCredit[out] <= 0 {
			continue
		}
		// Link-level fault handling: the flit crosses the link, the
		// downstream router's error detection rejects it and NACKs, and
		// the flit retries from this buffer after exponential backoff.
		// The corrupted crossing still burned wire and crossbar energy,
		// so it is charged like a delivered one. Hop-by-hop retry keeps
		// every worm, and therefore every message pair, in FIFO order —
		// the coherence protocol's ordering assumptions are unaffected.
		if out != portLocal && r.m.inj != nil && r.m.inj.MeshFlitError() {
			st := &r.m.stats
			st.MeshFlitErrors++
			st.MeshNacks++
			st.MeshLinkFlits++
			st.MeshRouterFlits++
			h := r.qfront(inp)
			if int(h.attempts) < r.m.inj.MaxRetries() {
				h.attempts++
				h.retryAt = now + r.m.inj.Backoff(int(h.attempts))
				st.MeshRetxFlits++
				continue
			}
			// Retry budget spent: force the flit through (modelling
			// end-to-end FEC recovering the residual error) so the
			// protocol layer always makes progress.
			st.MeshRetriesExhausted++
		}
		f := r.qpop(inp)
		f.attempts, f.retryAt = 0, 0 // retry state is per hop
		r.fwdFlits++
		if f.head() {
			r.outLock[out] = f.worm
			r.lockedIn[out] = inp
		}
		if f.tail() {
			r.outLock[out] = 0
		}
		// Return a credit upstream for the buffer slot we freed. The
		// credit is staged on the reverse wire (pushCredit) and becomes
		// spendable upstream LinkDelay cycles after this tick
		// (registered credit return).
		if inp < portLocal {
			if up := r.neighbor(inp); up != nil {
				up.pushCredit(opposite(inp), now)
			}
		}
		// Multicast worms deliver a local copy and spawn column worms as
		// their tail passes through each router they arrive at. Worms do
		// not fire side effects at their origin router (inp == portLocal):
		// the source's delivery and spawning happened at Send time.
		arrived := inp != portLocal
		if out == portLocal {
			r.ejectFlit(f, arrived)
		} else {
			r.outCredit[out]--
			r.m.stats.MeshLinkFlits++
			r.m.stats.MeshRouterFlits++
			nbr := r.neighbor(out)
			inPort := opposite(out)
			nbr.linkQ[inPort] = append(nbr.linkQ[inPort], f)
			r.m.K.Schedule(sim.Time(r.m.LinkDelay), nbr.arriveFn[inPort])
			if f.tail() && f.phase != phaseNone && arrived {
				r.mcastTailSideEffects(f)
			}
		}
	}
	for p := 0; p < numPorts; p++ {
		if !r.qempty(p) {
			r.wake()
			break
		}
	}
}

func (r *router) ejectFlit(f flit, arrived bool) {
	r.m.stats.MeshRouterFlits++
	if !f.tail() {
		return
	}
	if f.phase != phaseNone {
		if arrived {
			r.mcastTailSideEffects(f)
		}
		return
	}
	r.m.eject(r.id, f.msg)
}

func (r *router) mcastTailSideEffects(f flit) {
	// Deliver the local copy at this router.
	r.m.eject(r.id, f.msg)
	if f.phase == phaseRowE || f.phase == phaseRowW {
		r.spawnCols(f.msg, f.n)
	}
}
