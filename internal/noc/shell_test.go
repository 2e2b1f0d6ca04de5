package noc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestDrainedWaitsForReorderCAM checks the Drained contract on the
// fabrics with a reorder CAM: a message held there, waiting for its
// pair's predecessor, is a pending delivery, so the fabric is not
// drained until the predecessor arrives and releases it.
func TestDrainedWaitsForReorderCAM(t *testing.T) {
	type drainable interface {
		SetDeliver(DeliverFunc)
		Drained() bool
	}
	build := func(t *testing.T, kind config.NetworkKind, k *sim.Kernel) (drainable, *pairOrder) {
		cfg := config.Tiny().WithNetwork(kind)
		if kind == config.ATACPlus {
			cfg.Network.Routing = config.AdaptiveRouting
		} else {
			cfg.Fault = config.DefaultFault()
			cfg.Fault.Enabled = true
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if kind == config.ATACPlus {
			a := NewAtac(k, &cfg)
			return a, a.pairs
		}
		h := NewHybrid(k, &cfg)
		return h, h.pairs
	}
	for _, kind := range []config.NetworkKind{config.ATACPlus, config.HybridMesh} {
		t.Run(kind.String(), func(t *testing.T) {
			var k sim.Kernel
			net, pairs := build(t, kind, &k)
			if pairs == nil {
				t.Fatal("reorder CAM not armed")
			}
			var got []*Message
			net.SetDeliver(func(dst int, m *Message) { got = append(got, m) })
			first := &Message{Src: 0, Dst: 15, Bits: 64}
			second := &Message{Src: 0, Dst: 15, Bits: 64}
			pairs.stamp(first)
			pairs.stamp(second)

			pairs.receive(15, second)
			if len(got) != 0 {
				t.Fatalf("early arrival delivered ahead of its predecessor")
			}
			if net.Drained() {
				t.Error("Drained() with a message held in the reorder CAM")
			}
			pairs.receive(15, first)
			if len(got) != 2 || got[0] != first || got[1] != second {
				t.Fatalf("deliveries %v, want first then second", got)
			}
			if !net.Drained() {
				t.Error("not drained after the reorder CAM released its message")
			}
		})
	}
}
