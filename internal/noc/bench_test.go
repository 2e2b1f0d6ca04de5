package noc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// Micro-benchmarks of the network fabrics: flit throughput of the wormhole
// mesh and the composed ATAC fabric under uniform load. These track the
// simulator's own performance (host events/second), not modelled metrics.

func benchMesh(b *testing.B, multicast bool) {
	rng := rand.New(rand.NewSource(1))
	var k sim.Kernel
	m := NewMesh(&k, 16, 64, 4, 1, 1, multicast)
	m.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(256), rng.Intn(256)
		m.Send(&Message{Src: src, Dst: dst, Bits: 104})
		if i%64 == 63 {
			k.Run(k.Now() + 32)
		}
	}
	k.RunAll()
	b.ReportMetric(float64(m.Stats().MeshLinkFlits)/float64(b.N), "flit-hops/msg")
}

func BenchmarkMeshUnicastThroughput(b *testing.B) { benchMesh(b, false) }

func BenchmarkMeshMulticastFabric(b *testing.B) { benchMesh(b, true) }

func BenchmarkMeshBroadcast(b *testing.B) {
	var k sim.Kernel
	m := NewMesh(&k, 16, 64, 4, 1, 1, true)
	m.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(&Message{Src: i % 256, Dst: BroadcastDst, Bits: 104})
		k.RunAll()
	}
}

// BenchmarkMeshFlitPath isolates the per-flit hot path: one maximum-length
// unicast worm crossing the full mesh diagonal, drained to completion each
// iteration. Allocations here are the wormhole pipeline's own (worm
// construction, link staging, queue churn) with no traffic-generator noise.
func BenchmarkMeshFlitPath(b *testing.B) {
	var k sim.Kernel
	m := NewMesh(&k, 16, 64, 4, 1, 1, false)
	m.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(&Message{Src: 0, Dst: 255, Bits: 512})
		k.RunAll()
	}
	b.ReportMetric(float64(m.Stats().MeshLinkFlits)/float64(b.N), "flit-hops/msg")
}

// uniformPeriod is the cycle budget per 64-message batch of driveUniform:
// 0.5 messages/cycle over 64 cores, comfortably below the saturation
// point of every fabric at config.Small() (the Corona crossbar, the
// first to saturate, holds its token wait flat up to 1 message/cycle).
// Above saturation queues grow with the message count, so per-message
// metrics would measure the benchmark's length instead of the fabric.
const uniformPeriod = 128

// driveUniform offers n uniform-random 104-bit messages (one broadcast
// in 200) to net, 64 per uniformPeriod cycles, and drains the fabric.
func driveUniform(k *sim.Kernel, net Network, n int) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if i%200 == 0 {
			dst = BroadcastDst
		}
		net.Send(&Message{Src: src, Dst: dst, Bits: 104})
		if i%64 == 63 {
			k.Run(k.Now() + uniformPeriod)
		}
	}
	k.RunAll()
}

func BenchmarkAtacUniformTraffic(b *testing.B) {
	cfg := config.Small()
	var k sim.Kernel
	a := NewAtac(&k, &cfg)
	a.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	driveUniform(&k, a, b.N)
}

// BenchmarkCrossbarUniformTraffic tracks the Corona fabric's host-side
// throughput under the same uniform load as the ATAC benchmark; the
// extra metric is the mean token wait, the crossbar's arbitration cost.
func BenchmarkCrossbarUniformTraffic(b *testing.B) {
	cfg := config.Small().WithNetwork(config.Corona)
	var k sim.Kernel
	x := NewCrossbar(&k, &cfg)
	x.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	driveUniform(&k, x, b.N)
	b.ReportMetric(tokenWaitPerGrant(x.Stats()), "token-wait/grant")
}

// BenchmarkHybridUniformTraffic tracks the hybrid fabric's host-side
// throughput under the same uniform load; the extra metric is the share
// of unicasts that took the photonic express path.
func BenchmarkHybridUniformTraffic(b *testing.B) {
	cfg := config.Small().WithNetwork(config.HybridMesh)
	var k sim.Kernel
	hy := NewHybrid(&k, &cfg)
	hy.SetDeliver(func(int, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	driveUniform(&k, hy, b.N)
	b.ReportMetric(expressFrac(hy.Stats()), "express-frac")
}

func tokenWaitPerGrant(st *Stats) float64 {
	if st.TokensGranted == 0 {
		return 0
	}
	return float64(st.TokenWaitCycles) / float64(st.TokensGranted)
}

func expressFrac(st *Stats) float64 {
	if st.UnicastSent == 0 {
		return 0
	}
	return float64(st.ExpressPkts) / float64(st.UnicastSent)
}

// TestUniformTrafficMetricsStationary pins that the fabric benchmarks'
// reported metrics are properties of the fabric, not of benchtime: the
// crossbar's token-wait/grant and the hybrid's express-frac must agree
// between runs of 2,000 and 20,000 messages. Token wait may move by at
// most 10% (relative); express-frac by at most 0.02 (absolute). Driven
// past saturation, token wait grew ~8x over the same span.
func TestUniformTrafficMetricsStationary(t *testing.T) {
	measure := func(n int) (wait, express float64) {
		cx := config.Small().WithNetwork(config.Corona)
		var kx sim.Kernel
		x := NewCrossbar(&kx, &cx)
		x.SetDeliver(func(int, *Message) {})
		driveUniform(&kx, x, n)

		ch := config.Small().WithNetwork(config.HybridMesh)
		var kh sim.Kernel
		hy := NewHybrid(&kh, &ch)
		hy.SetDeliver(func(int, *Message) {})
		driveUniform(&kh, hy, n)
		return tokenWaitPerGrant(x.Stats()), expressFrac(hy.Stats())
	}
	w1, e1 := measure(2000)
	w2, e2 := measure(20000)
	if w1 <= 0 || w2 <= 0 {
		t.Fatalf("no token waits measured: %.2f, %.2f", w1, w2)
	}
	if r := w2 / w1; r < 1/1.1 || r > 1.1 {
		t.Errorf("crossbar token-wait/grant %.2f at 2k msgs vs %.2f at 20k (ratio %.3f outside [0.909, 1.1])", w1, w2, r)
	}
	if d := math.Abs(e2 - e1); d > 0.02 {
		t.Errorf("hybrid express-frac %.3f at 2k msgs vs %.3f at 20k (|diff| %.3f > 0.02)", e1, e2, d)
	}
}
