// Package workload provides the application programs the paper evaluates
// (Section V-A): seven SPLASH-2 kernels — radix, barnes, fmm, ocean
// (contiguous and non-contiguous) and lu (contiguous and non-contiguous) —
// plus the UHPC dynamic graph benchmark, reimplemented against the
// simulated coherent shared memory. Synchronization (barriers, ticket
// locks, spin-waits) is built from ordinary loads, stores and atomics, so
// it produces exactly the coherence traffic the paper's evaluation
// depends on: widely-shared lines, invalidation broadcasts, and lock
// ping-ponging.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/coherence"
	"repro/internal/cpu"
)

// Spec is one runnable benchmark.
type Spec struct {
	Name string
	// Init pre-loads the value store (the program's input data), like
	// binary/data pages already resident in DRAM. Caches start cold.
	Init func(vs *coherence.ValueStore)
	// Program runs on every core (it dispatches on p.ID()).
	Program cpu.Program
	// Validate checks the output against a sequential reference.
	Validate func(vs *coherence.ValueStore) error
}

// Mem is a bump allocator for the simulated shared address space. All
// allocations are cache-line aligned; Pad-allocated regions give each core
// a private line to avoid false sharing where the real benchmarks do.
type Mem struct {
	next uint64
	line uint64
}

// NewMem starts allocating at a fixed base with the given line size.
func NewMem(lineBytes int) *Mem {
	return &Mem{next: 1 << 20, line: uint64(lineBytes)}
}

// Alloc reserves n bytes, line-aligned.
func (m *Mem) Alloc(n int) uint64 {
	if n <= 0 {
		n = 8
	}
	addr := m.next
	sz := (uint64(n) + m.line - 1) / m.line * m.line
	m.next += sz
	return addr
}

// AllocWords reserves n 8-byte words.
func (m *Mem) AllocWords(n int) uint64 { return m.Alloc(n * 8) }

// Barrier is a sense-reversing centralized barrier in shared memory.
type Barrier struct {
	count uint64 // arrival counter (own line)
	sense uint64 // release flag (own line)
	n     int
}

// NewBarrier allocates a barrier for n participants.
func NewBarrier(m *Mem, n int) *Barrier {
	return &Barrier{count: m.Alloc(8), sense: m.Alloc(8), n: n}
}

// BarrierState is one core's local sense. Each core creates its own.
type BarrierState struct {
	b     *Barrier
	local uint64
}

// State returns a fresh per-core handle.
func (b *Barrier) State() *BarrierState { return &BarrierState{b: b} }

// Wait blocks until all n participants arrive. The waiters spin locally on
// the sense line: one shared line, invalidated once on release — the
// classic source of ACKwise invalidation broadcasts.
func (s *BarrierState) Wait(p *cpu.Proc) {
	s.local ^= 1
	want := s.local
	arrived := p.FetchAdd(s.b.count, 1)
	if arrived == uint64(s.b.n-1) {
		p.Store(s.b.count, 0)
		p.Store(s.b.sense, want)
		return
	}
	p.WaitUntil(s.b.sense, func(v uint64) bool { return v == want })
}

// Lock is a fair ticket lock in shared memory.
type Lock struct {
	next    uint64
	serving uint64
}

// NewLock allocates a lock.
func NewLock(m *Mem) *Lock {
	return &Lock{next: m.Alloc(8), serving: m.Alloc(8)}
}

// Acquire takes the lock, returning the ticket to pass to Release.
func (l *Lock) Acquire(p *cpu.Proc) uint64 {
	t := p.FetchAdd(l.next, 1)
	p.WaitUntil(l.serving, func(v uint64) bool { return v == t })
	return t
}

// Release hands the lock to the next ticket holder.
func (l *Lock) Release(p *cpu.Proc, ticket uint64) {
	p.Store(l.serving, ticket+1)
}

// rng returns the deterministic per-core random stream.
func rng(seed int64, core int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(core)*7919 + 1))
}

// kernels lists every benchmark constructor in catalog order: the paper's
// eight, then the extension kernels this repository adds (fft, water).
var kernels = []func(cores int, seed int64, scale int) Spec{
	DynamicGraph, Radix, Barnes, FMM, OceanContig, LUContig, OceanNonContig, LUNonContig,
	FFT, Water,
}

// paperKernels is how many leading entries of kernels the paper evaluates.
const paperKernels = 8

// build constructs each kernel at one scale; scale < 1 means 1, so every
// kernel in a catalog sees the same problem size.
func build(fns []func(int, int64, int) Spec, cores int, seed int64, scale int) []Spec {
	if scale < 1 {
		scale = 1
	}
	out := make([]Spec, len(fns))
	for i, f := range fns {
		out[i] = f(cores, seed, scale)
	}
	return out
}

// Catalog builds all eight benchmarks at a scale appropriate for the given
// core count. scale multiplies the per-core problem size (1 = the default
// used throughout the evaluation; smaller values mean 1).
func Catalog(cores int, seed int64, scale int) []Spec {
	return build(kernels[:paperKernels], cores, seed, scale)
}

// ExtendedCatalog returns the paper's eight benchmarks plus the extension
// kernels this repository adds beyond the paper (fft, water), all at the
// same scale.
func ExtendedCatalog(cores int, seed int64, scale int) []Spec {
	return build(kernels, cores, seed, scale)
}

// ByName returns the named benchmark from the extended catalog.
func ByName(name string, cores int, seed int64, scale int) (Spec, error) {
	for _, s := range ExtendedCatalog(cores, seed, scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// isqrt returns the integer square root used for grid partitioning.
func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
