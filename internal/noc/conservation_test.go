// Flit-conservation property tests: every injected message is delivered
// exactly once at its destination (unicast) or exactly once at every
// core including the sender's (broadcast) — no loss, no duplication —
// across every fabric backend, under randomized traffic, and with fault
// injection forcing retransmission and rerouting. The same property
// backs the fuzz targets in fuzz_test.go.
package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// sentMsg records one injected message for the conservation check.
// Messages are identified by a unique int payload: EMesh-Pure serializes
// a broadcast into per-destination clones, so pointer identity cannot
// name a logical message — the payload survives cloning.
type sentMsg struct {
	id    int
	src   int
	dst   int // BroadcastDst for broadcasts
	bcast bool
}

// conservationHarness drives randomized traffic into a network and
// asserts the conservation property after the kernel drains.
type conservationHarness struct {
	net   Network
	k     *sim.Kernel
	cores int
	sent  []sentMsg
	// got[id][dst] counts deliveries of logical message id at core dst.
	got map[int]map[int]int
}

func newConservationHarness(k *sim.Kernel, net Network, cores int) *conservationHarness {
	h := &conservationHarness{net: net, k: k, cores: cores, got: map[int]map[int]int{}}
	net.SetDeliver(func(dst int, m *Message) {
		id := m.Payload.(int)
		if h.got[id] == nil {
			h.got[id] = map[int]int{}
		}
		h.got[id][dst]++
	})
	return h
}

// inject sends n messages with sources, destinations, sizes and
// unicast/broadcast mix drawn from rng.
func (h *conservationHarness) inject(rng *rand.Rand, n int, bcastFrac float64) {
	for i := 0; i < n; i++ {
		m := sentMsg{id: len(h.sent), src: rng.Intn(h.cores)}
		if rng.Float64() < bcastFrac {
			m.dst, m.bcast = BroadcastDst, true
		} else {
			m.dst = rng.Intn(h.cores)
			for m.dst == m.src {
				m.dst = rng.Intn(h.cores)
			}
		}
		h.sent = append(h.sent, m)
		bits := []int{16, 64, 512}[rng.Intn(3)]
		h.net.Send(&Message{Src: m.src, Dst: m.dst, Bits: bits, Payload: m.id})
	}
}

// check runs the kernel to drain and asserts exactly-once delivery.
func (h *conservationHarness) check(t testing.TB) {
	t.Helper()
	h.k.RunAll()
	for _, s := range h.sent {
		deliveries := h.got[s.id]
		if s.bcast {
			if len(deliveries) != h.cores {
				t.Fatalf("broadcast %d from %d reached %d of %d cores", s.id, s.src, len(deliveries), h.cores)
			}
			for dst, n := range deliveries {
				if n != 1 {
					t.Fatalf("broadcast %d delivered %d times at core %d", s.id, n, dst)
				}
			}
		} else {
			if n := deliveries[s.dst]; n != 1 {
				t.Fatalf("unicast %d (%d->%d) delivered %d times at its destination", s.id, s.src, s.dst, n)
			}
			if len(deliveries) != 1 {
				t.Fatalf("unicast %d (%d->%d) leaked to other cores: %v", s.id, s.src, s.dst, deliveries)
			}
		}
	}
	if !h.net.Drained() {
		t.Fatal("network not drained after RunAll")
	}
}

// atacConservationFixture builds a 16-core ATAC+ with optional faults.
func atacConservationFixture(t testing.TB, fc config.Fault) (*sim.Kernel, *Atac) {
	cfg := config.Tiny().WithNetwork(config.ATACPlus)
	cfg.Fault = fc // set ahead of construction: the fabric sizes its fault-aware state from it
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	a := NewAtac(&k, &cfg)
	if inj := fault.NewInjector(cfg.Fault, cfg.Network.FlitBits, cfg.Seed, &k); inj != nil {
		a.SetFaults(inj)
	}
	return &k, a
}

// crossbarConservationFixture builds a 16-core Corona crossbar with
// optional faults.
func crossbarConservationFixture(t testing.TB, fc config.Fault) (*sim.Kernel, *Crossbar) {
	cfg := config.Tiny().WithNetwork(config.Corona)
	cfg.Fault = fc
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	x := NewCrossbar(&k, &cfg)
	if inj := fault.NewInjector(cfg.Fault, cfg.Network.FlitBits, cfg.Seed, &k); inj != nil {
		x.SetFaults(inj)
	}
	return &k, x
}

// hybridConservationFixture builds a 16-core hybrid (4 gateways, radius 1)
// with optional faults.
func hybridConservationFixture(t testing.TB, fc config.Fault) (*sim.Kernel, *Hybrid) {
	cfg := config.Tiny().WithNetwork(config.HybridMesh)
	cfg.Fault = fc
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var k sim.Kernel
	hy := NewHybrid(&k, &cfg)
	if inj := fault.NewInjector(cfg.Fault, cfg.Network.FlitBits, cfg.Seed, &k); inj != nil {
		hy.SetFaults(inj)
	}
	return &k, hy
}

// opticalFaultProfile is the shared faulty-fixture profile: optical and
// mesh error rates high enough to force retransmission, degradation armed
// at its default, no watchdog (the harness drives raw kernels).
func opticalFaultProfile(seed int64) config.Fault {
	fc := config.DefaultFault()
	fc.Enabled = true
	fc.OpticalBER = 1e-3
	fc.MeshBER = 2e-4
	fc.WatchdogInterval = 0
	fc.Seed = seed
	return fc
}

func TestFlitConservation(t *testing.T) {
	cases := []struct {
		name  string
		build func(t testing.TB, seed int64) (*sim.Kernel, Network, int)
	}{
		{"EMeshPure", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			var k sim.Kernel
			return &k, newTestMesh(&k, 4, false), 16
		}},
		{"EMeshBCast", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			var k sim.Kernel
			return &k, newTestMesh(&k, 4, true), 16
		}},
		{"ATACPlus", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, a := atacConservationFixture(t, config.Fault{})
			return k, a, 16
		}},
		{"MeshFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			var k sim.Kernel
			m := newTestMesh(&k, 4, true)
			m.SetFaults(fault.NewInjector(config.Fault{Enabled: true, MeshBER: 1e-3}, 64, seed, &k))
			return &k, m, 16
		}},
		{"ATACFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, a := atacConservationFixture(t, opticalFaultProfile(seed))
			return k, a, 16
		}},
		{"Corona", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, x := crossbarConservationFixture(t, config.Fault{})
			return k, x, 16
		}},
		{"CoronaFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, x := crossbarConservationFixture(t, opticalFaultProfile(seed))
			return k, x, 16
		}},
		{"Hybrid", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, hy := hybridConservationFixture(t, config.Fault{})
			return k, hy, 16
		}},
		{"HybridFaulty", func(t testing.TB, seed int64) (*sim.Kernel, Network, int) {
			k, hy := hybridConservationFixture(t, opticalFaultProfile(seed))
			return k, hy, 16
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					k, net, cores := tc.build(t, seed)
					h := newConservationHarness(k, net, cores)
					h.inject(rand.New(rand.NewSource(seed)), 200, 0.25)
					h.check(t)
				})
			}
		})
	}
}

// TestConservationUnderLoadBursts interleaves injection with kernel
// progress, so traffic meets in-flight traffic (credit back-pressure,
// hub contention) rather than an idle fabric.
func TestConservationUnderLoadBursts(t *testing.T) {
	k, a := atacConservationFixture(t, config.Fault{})
	h := newConservationHarness(k, a, 16)
	rng := rand.New(rand.NewSource(99))
	for burst := 0; burst < 8; burst++ {
		h.inject(rng, 50, 0.3)
		k.Run(k.Now() + 20) // partial drain: next burst collides mid-flight
	}
	h.check(t)
}

// checkTokenConservation asserts the crossbar's token invariant: every
// token grant is matched by exactly one release once the fabric drains,
// under faults included (the writer holds the token across retries).
func checkTokenConservation(t testing.TB, x *Crossbar) {
	t.Helper()
	st := x.Stats()
	if st.TokensGranted != st.TokensReturned {
		t.Fatalf("token leak: %d granted, %d returned", st.TokensGranted, st.TokensReturned)
	}
	if st.XbarPkts > 0 && st.TokensGranted == 0 {
		t.Fatalf("%d crossbar packets moved without a token grant", st.XbarPkts)
	}
}

// TestCrossbarTokenConservation drives randomized traffic — clean and
// under optical faults — and asserts every granted home-channel token is
// returned, with token waits actually accumulated under contention.
func TestCrossbarTokenConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   func(seed int64) config.Fault
	}{
		{"Clean", func(int64) config.Fault { return config.Fault{} }},
		{"Faulty", opticalFaultProfile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				k, x := crossbarConservationFixture(t, tc.fc(seed))
				h := newConservationHarness(k, x, 16)
				h.inject(rand.New(rand.NewSource(seed)), 300, 0.25)
				h.check(t)
				checkTokenConservation(t, x)
				if st := x.Stats(); st.TokensGranted == 0 {
					t.Fatal("traffic never exercised the crossbar channels")
				}
			}
		})
	}
}

// TestHybridBoundaryConservation asserts flit conservation across the
// hybrid's electrical/photonic boundary on a clean fabric: every express
// packet enters a gateway exactly once (TX enqueue) and leaves exactly
// once (RX drain), so the gateway flit count is exactly twice the express
// flit count; faulty variants are covered by the harness cases, where
// retransmissions legitimately break this equality.
func TestHybridBoundaryConservation(t *testing.T) {
	k, hy := hybridConservationFixture(t, config.Fault{})
	h := newConservationHarness(k, hy, 16)
	h.inject(rand.New(rand.NewSource(7)), 300, 0.25)
	h.check(t)
	st := hy.Stats()
	if st.ExpressPkts == 0 {
		t.Fatal("traffic never exercised the express channels")
	}
	if st.HubFlits != 2*st.ExpressFlits {
		t.Fatalf("gateway boundary leak: %d gateway flits, want 2x%d express flits",
			st.HubFlits, st.ExpressFlits)
	}
}
